//! A from-scratch in-memory B+-tree.
//!
//! The paper builds its Index Buffer "on a normal B\*-Tree" (its ref. 3) and notes the
//! concrete structure is not essential. This implementation is the backing
//! store for both the partial indexes and the Index Buffer partitions:
//! sorted leaves threaded for range scans, internal nodes holding separator
//! keys only, configurable fanout.
//!
//! Keys are unique; secondary-index duplicates are modelled by composite
//! `(value, rid)` keys (see [`crate::key::EntryKey`]), the classic way to
//! make duplicate handling and precise deletion trivial.
//!
//! Two ways in: [`BPlusTree::insert`] descends once per key and splits
//! full nodes on the way back up; [`BPlusTree::from_sorted`] builds the
//! whole tree bottom-up from an ascending run, one pass and no descents,
//! each node filled to ¾ of the order.

// aib-lint: allow-file(no-index) — every index addresses a node's own
// `keys` / `vals` / `children` vectors: a position a binary search over
// that node's keys returned, or a sibling position whose existence the
// node's arity (`children.len() == keys.len() + 1`, kept by split/merge)
// guarantees.
// aib-lint: allow-file(no-panic) — the remaining `expect`/`unreachable!`
// sites assert structural invariants of the B+-tree algorithm (separator
// counts, child arity) that are maintained locally by split/merge and by
// the bulk load's node sizing; a violation is a bug in this module, not a
// recoverable input condition.

use std::fmt::Debug;

/// Default maximum number of keys per node.
pub const DEFAULT_ORDER: usize = 64;

/// Keys per bulk-loaded node: ¾ of the order. A constant, not a knob: full
/// nodes would make the first single-key insert after a bulk load split a
/// leaf on almost every call, half-full ones would double the node count;
/// ¾ leaves each node a quarter of the order of slack for the Table I adds
/// that follow.
fn bulk_fill(order: usize) -> usize {
    order * 3 / 4
}

enum Node<K, V> {
    Leaf {
        keys: Vec<K>,
        vals: Vec<V>,
    },
    Internal {
        keys: Vec<K>,
        children: Vec<Node<K, V>>,
    },
}

impl<K, V> Node<K, V> {
    fn key_count(&self) -> usize {
        match self {
            Node::Leaf { keys, .. } | Node::Internal { keys, .. } => keys.len(),
        }
    }
}

/// An in-memory B+-tree map with unique keys.
///
/// ```
/// use aib_index::BPlusTree;
///
/// let mut tree = BPlusTree::with_order(4);
/// for k in [5, 1, 9, 3, 7] {
///     tree.insert(k, k * 10);
/// }
/// assert_eq!(tree.get(&9), Some(&90));
/// assert_eq!(tree.remove(&1), Some(10));
/// let keys: Vec<i32> = tree.range(&3, &7).map(|(k, _)| *k).collect();
/// assert_eq!(keys, vec![3, 5, 7]);
/// tree.check_invariants();
/// ```
pub struct BPlusTree<K, V> {
    root: Box<Node<K, V>>,
    order: usize,
    len: usize,
}

impl<K: Ord + Clone, V> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// Creates an empty tree with [`DEFAULT_ORDER`].
    pub fn new() -> Self {
        Self::with_order(DEFAULT_ORDER)
    }

    /// Creates an empty tree with at most `order` keys per node.
    ///
    /// # Panics
    /// If `order < 3` (splits need a separator plus two halves).
    pub fn with_order(order: usize) -> Self {
        assert!(order >= 3, "B+-tree order must be at least 3");
        BPlusTree {
            root: Box::new(Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
            }),
            order,
            len: 0,
        }
    }

    /// Builds a tree of at most `order` keys per node from `entries` in
    /// strictly ascending key order, bottom-up: leaves are cut straight
    /// from the run, then each level of internal nodes from the one below,
    /// every node filled to about ¾ of `order` — slack for the single-key
    /// inserts that follow — and never outside the occupancy bounds
    /// [`check_invariants`] enforces.
    /// O(n), no key comparisons beyond the debug-build order check.
    ///
    /// ```
    /// use aib_index::BPlusTree;
    ///
    /// let tree = BPlusTree::from_sorted(4, (0..100).map(|k| (k, k * 10)));
    /// assert_eq!(tree.len(), 100);
    /// assert_eq!(tree.get(&42), Some(&420));
    /// tree.check_invariants();
    /// ```
    ///
    /// # Panics
    /// If `order < 3`; in debug builds, if `entries` is not strictly
    /// ascending.
    ///
    /// [`check_invariants`]: BPlusTree::check_invariants
    pub fn from_sorted<I>(order: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut tree = Self::with_order(order);
        let mut entries = entries.into_iter();
        tree.len = entries.len();
        let min = tree.min_keys();
        let fill = bulk_fill(order);

        // Each node travels with the smallest key of its subtree: that key
        // is the separator its parent puts in front of it. Every node is
        // allocated for the one-past-full state a split starts from, so the
        // first insert into a bulk-loaded node does not reallocate it.
        let mut level: Vec<(K, Node<K, V>)> = Vec::new();
        for size in bulk_node_sizes(tree.len, min, order, fill) {
            let mut keys = Vec::with_capacity(order + 1);
            let mut vals = Vec::with_capacity(order + 1);
            for (k, v) in entries.by_ref().take(size) {
                keys.push(k);
                vals.push(v);
            }
            debug_assert!(
                keys.windows(2).all(|w| w[0] < w[1])
                    && level.last().is_none_or(|(_, prev)| {
                        matches!(prev, Node::Leaf { keys: prev, .. } if prev.last() < keys.first())
                    }),
                "from_sorted input must be strictly ascending"
            );
            let first = keys.first().expect("bulk leaf sizes are positive").clone();
            level.push((first, Node::Leaf { keys, vals }));
        }
        // Internal levels count children, one more than keys per node.
        while level.len() > 1 {
            let mut below = level.into_iter();
            level = bulk_node_sizes(below.len(), min + 1, order + 1, fill + 1)
                .map(|size| {
                    let (first, leftmost) = below.next().expect("bulk sizes sum to the level");
                    let mut keys = Vec::with_capacity(order + 1);
                    let mut children = Vec::with_capacity(order + 2);
                    children.push(leftmost);
                    for (sep, child) in below.by_ref().take(size - 1) {
                        keys.push(sep);
                        children.push(child);
                    }
                    (first, Node::Internal { keys, children })
                })
                .collect();
        }
        if let Some((_, root)) = level.pop() {
            *tree.root = root;
        }
        tree
    }

    /// Consumes the tree, returning its entries in key order.
    pub fn into_sorted_vec(self) -> Vec<(K, V)> {
        fn drain<K, V>(node: Node<K, V>, out: &mut Vec<(K, V)>) {
            match node {
                Node::Leaf { keys, vals } => out.extend(keys.into_iter().zip(vals)),
                Node::Internal { children, .. } => {
                    for child in children {
                        drain(child, out);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(self.len);
        drain(*self.root, &mut out);
        out
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum keys per node.
    #[inline]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Minimum keys a non-root node may hold.
    #[inline]
    fn min_keys(&self) -> usize {
        self.order / 2
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        *self.root = Node::Leaf {
            keys: Vec::new(),
            vals: Vec::new(),
        };
        self.len = 0;
    }

    /// Looks up `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut node = &*self.root;
        loop {
            match node {
                Node::Leaf { keys, vals } => {
                    return keys.binary_search(key).ok().map(|i| &vals[i]);
                }
                Node::Internal { keys, children } => {
                    let idx = child_index(keys, key);
                    node = &children[idx];
                }
            }
        }
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key -> value`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let order = self.order;
        let (old, split) = insert_rec(&mut self.root, key, value, order);
        if old.is_none() {
            self.len += 1;
        }
        if let Some((sep, right)) = split {
            let old_root = std::mem::replace(
                &mut *self.root,
                Node::Leaf {
                    keys: Vec::new(),
                    vals: Vec::new(),
                },
            );
            *self.root = Node::Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            };
        }
        old
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let min = self.min_keys();
        let removed = remove_rec(&mut self.root, key, min);
        if removed.is_some() {
            self.len -= 1;
            // Collapse a root that lost its last separator.
            if let Node::Internal { keys, children } = &mut *self.root {
                if keys.is_empty() {
                    debug_assert_eq!(children.len(), 1);
                    *self.root = children.pop().expect("single child");
                }
            }
        }
        removed
    }

    /// Smallest key, if any.
    pub fn first_key(&self) -> Option<&K> {
        let mut node = &*self.root;
        loop {
            match node {
                Node::Leaf { keys, .. } => return keys.first(),
                Node::Internal { children, .. } => node = children.first()?,
            }
        }
    }

    /// Largest key, if any.
    pub fn last_key(&self) -> Option<&K> {
        let mut node = &*self.root;
        loop {
            match node {
                Node::Leaf { keys, .. } => return keys.last(),
                Node::Internal { children, .. } => node = children.last()?,
            }
        }
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut iter = Iter { stack: Vec::new() };
        iter.push_leftmost(&self.root);
        iter
    }

    /// Iterates entries with `lo <= key <= hi` in key order.
    pub fn range(&self, lo: &K, hi: &K) -> Range<'_, K, V> {
        let mut iter = Iter { stack: Vec::new() };
        if lo <= hi {
            iter.push_from(&self.root, lo);
        }
        Range {
            inner: iter,
            hi: hi.clone(),
        }
    }

    /// Iterates entries with `key >= lo` in key order.
    pub fn range_from(&self, lo: &K) -> Iter<'_, K, V> {
        let mut iter = Iter { stack: Vec::new() };
        iter.push_from(&self.root, lo);
        iter
    }

    /// Checks the B+-tree structural invariants; used by tests and
    /// debug assertions. Returns the tree height.
    ///
    /// # Panics
    /// If any invariant is violated.
    pub fn check_invariants(&self) -> usize
    where
        K: Debug,
    {
        fn check<K: Ord + Clone + Debug, V>(
            node: &Node<K, V>,
            lo: Option<&K>,
            hi: Option<&K>,
            is_root: bool,
            order: usize,
            min: usize,
        ) -> (usize, usize) {
            match node {
                Node::Leaf { keys, vals } => {
                    assert_eq!(keys.len(), vals.len(), "leaf key/value arity");
                    assert!(keys.len() <= order, "leaf overflow");
                    if !is_root {
                        assert!(
                            keys.len() >= min,
                            "leaf underflow: {} < {}",
                            keys.len(),
                            min
                        );
                    }
                    assert!(
                        keys.windows(2).all(|w| w[0] < w[1]),
                        "leaf keys sorted: {keys:?}"
                    );
                    if let (Some(lo), Some(first)) = (lo, keys.first()) {
                        assert!(lo <= first, "leaf respects lower bound");
                    }
                    if let (Some(hi), Some(last)) = (hi, keys.last()) {
                        assert!(last < hi, "leaf respects upper bound");
                    }
                    (1, keys.len())
                }
                Node::Internal { keys, children } => {
                    assert_eq!(children.len(), keys.len() + 1, "internal arity");
                    assert!(keys.len() <= order, "internal overflow");
                    if !is_root {
                        assert!(keys.len() >= min, "internal underflow");
                    } else {
                        assert!(!keys.is_empty(), "internal root has a separator");
                    }
                    assert!(keys.windows(2).all(|w| w[0] < w[1]), "separators sorted");
                    let mut height = None;
                    let mut count = 0;
                    for (i, child) in children.iter().enumerate() {
                        let clo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                        let chi = if i == keys.len() { hi } else { Some(&keys[i]) };
                        let (h, c) = check(child, clo, chi, false, order, min);
                        count += c;
                        match height {
                            None => height = Some(h),
                            Some(prev) => assert_eq!(prev, h, "uniform leaf depth"),
                        }
                    }
                    (height.expect("internal node has children") + 1, count)
                }
            }
        }
        let (height, count) = check(&self.root, None, None, true, self.order, self.min_keys());
        assert_eq!(count, self.len, "len matches entry count");
        height
    }
}

impl<K: Ord + Clone + Debug, V: Debug> Debug for BPlusTree<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BPlusTree")
            .field("len", &self.len)
            .field("order", &self.order)
            .finish_non_exhaustive()
    }
}

/// Index of the child subtree that may contain `key`.
///
/// Separator semantics: child `i` holds keys in `[keys[i-1], keys[i])`, so we
/// descend into the first child whose upper separator exceeds `key`.
#[inline]
fn child_index<K: Ord>(keys: &[K], key: &K) -> usize {
    match keys.binary_search(key) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

/// Sizes of the nodes one bulk-loaded level cuts `n` items into: as close
/// to `target` items each as the bounds allow, spread evenly so no node
/// holds fewer than `lo` or more than `hi`. A level of one node is the root
/// and only needs `n <= hi`.
///
/// Such a split exists for every `n >= lo` because `2·lo <= hi + 1` (leaves:
/// `lo = order/2`, `hi = order`; internal nodes count children, one more of
/// each): the item counts `L` nodes can hold, `[L·lo, L·hi]`, then overlap
/// from `L = 1` on, so the node counts in `[⌈n/hi⌉, ⌊n/lo⌋]` are all valid
/// and the count nearest `target` is clamped into that range.
fn bulk_node_sizes(n: usize, lo: usize, hi: usize, target: usize) -> impl Iterator<Item = usize> {
    let nodes = if n == 0 {
        0
    } else {
        n.div_ceil(target).max(n.div_ceil(hi)).min((n / lo).max(1))
    };
    let base = n.checked_div(nodes).unwrap_or(0);
    let extra = n.checked_rem(nodes).unwrap_or(0);
    (0..nodes).map(move |i| base + usize::from(i < extra))
}

/// Recursive insert; returns `(old_value, split)` where `split` carries the
/// separator and new right sibling if this node overflowed.
#[allow(clippy::type_complexity)]
fn insert_rec<K: Ord + Clone, V>(
    node: &mut Node<K, V>,
    key: K,
    value: V,
    order: usize,
) -> (Option<V>, Option<(K, Node<K, V>)>) {
    match node {
        Node::Leaf { keys, vals } => match keys.binary_search(&key) {
            Ok(i) => (Some(std::mem::replace(&mut vals[i], value)), None),
            Err(i) => {
                keys.insert(i, key);
                vals.insert(i, value);
                if keys.len() <= order {
                    return (None, None);
                }
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid);
                let right_vals = vals.split_off(mid);
                let sep = right_keys[0].clone();
                (
                    None,
                    Some((
                        sep,
                        Node::Leaf {
                            keys: right_keys,
                            vals: right_vals,
                        },
                    )),
                )
            }
        },
        Node::Internal { keys, children } => {
            let idx = child_index(keys, &key);
            let (old, split) = insert_rec(&mut children[idx], key, value, order);
            if let Some((sep, right)) = split {
                keys.insert(idx, sep);
                children.insert(idx + 1, right);
                if keys.len() > order {
                    let mid = keys.len() / 2;
                    // keys[mid] moves up as the separator.
                    let mut right_keys = keys.split_off(mid);
                    let sep = right_keys.remove(0);
                    let right_children = children.split_off(mid + 1);
                    return (
                        old,
                        Some((
                            sep,
                            Node::Internal {
                                keys: right_keys,
                                children: right_children,
                            },
                        )),
                    );
                }
            }
            (old, None)
        }
    }
}

/// Recursive remove; rebalances child underflow on the way back up so the
/// parent only ever sees children satisfying the minimum-occupancy invariant.
fn remove_rec<K: Ord + Clone, V>(node: &mut Node<K, V>, key: &K, min: usize) -> Option<V> {
    match node {
        Node::Leaf { keys, vals } => match keys.binary_search(key) {
            Ok(i) => {
                keys.remove(i);
                Some(vals.remove(i))
            }
            Err(_) => None,
        },
        Node::Internal { keys, children } => {
            let idx = child_index(keys, key);
            let removed = remove_rec(&mut children[idx], key, min)?;
            if children[idx].key_count() < min {
                rebalance_child(keys, children, idx, min);
            }
            Some(removed)
        }
    }
}

/// Restores minimum occupancy of `children[idx]` by borrowing from a sibling
/// or merging with one.
fn rebalance_child<K: Ord + Clone, V>(
    keys: &mut Vec<K>,
    children: &mut Vec<Node<K, V>>,
    idx: usize,
    min: usize,
) {
    // Try borrowing from the left sibling.
    if idx > 0 && children[idx - 1].key_count() > min {
        let (left, right) = children.split_at_mut(idx);
        let left = &mut left[idx - 1];
        let child = &mut right[0];
        match (left, child) {
            (Node::Leaf { keys: lk, vals: lv }, Node::Leaf { keys: ck, vals: cv }) => {
                let k = lk.pop().expect("left sibling above min");
                let v = lv.pop().expect("left sibling above min");
                ck.insert(0, k.clone());
                cv.insert(0, v);
                keys[idx - 1] = k;
            }
            (
                Node::Internal {
                    keys: lk,
                    children: lc,
                },
                Node::Internal {
                    keys: ck,
                    children: cc,
                },
            ) => {
                // Rotate through the parent separator.
                let sep = std::mem::replace(&mut keys[idx - 1], lk.pop().expect("above min"));
                ck.insert(0, sep);
                cc.insert(0, lc.pop().expect("internal arity"));
            }
            _ => unreachable!("siblings are at the same level"),
        }
        return;
    }
    // Try borrowing from the right sibling.
    if idx + 1 < children.len() && children[idx + 1].key_count() > min {
        let (left, right) = children.split_at_mut(idx + 1);
        let child = &mut left[idx];
        let sib = &mut right[0];
        match (child, sib) {
            (Node::Leaf { keys: ck, vals: cv }, Node::Leaf { keys: rk, vals: rv }) => {
                ck.push(rk.remove(0));
                cv.push(rv.remove(0));
                keys[idx] = rk[0].clone();
            }
            (
                Node::Internal {
                    keys: ck,
                    children: cc,
                },
                Node::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                let sep = std::mem::replace(&mut keys[idx], rk.remove(0));
                ck.push(sep);
                cc.push(rc.remove(0));
            }
            _ => unreachable!("siblings are at the same level"),
        }
        return;
    }
    // Merge with a sibling (preferring left).
    let (left_idx, sep_idx) = if idx > 0 {
        (idx - 1, idx - 1)
    } else {
        (idx, idx)
    };
    let right_node = children.remove(left_idx + 1);
    let sep = keys.remove(sep_idx);
    let left_node = &mut children[left_idx];
    match (left_node, right_node) {
        (
            Node::Leaf { keys: lk, vals: lv },
            Node::Leaf {
                keys: mut rk,
                vals: mut rv,
            },
        ) => {
            lk.append(&mut rk);
            lv.append(&mut rv);
        }
        (
            Node::Internal {
                keys: lk,
                children: lc,
            },
            Node::Internal {
                keys: mut rk,
                children: mut rc,
            },
        ) => {
            lk.push(sep);
            lk.append(&mut rk);
            lc.append(&mut rc);
        }
        _ => unreachable!("siblings are at the same level"),
    }
}

/// In-order iterator over tree entries.
pub struct Iter<'a, K, V> {
    /// Stack of (internal node, next child index) plus at most one leaf
    /// cursor at the top, encoded as (node, next entry index).
    stack: Vec<(&'a Node<K, V>, usize)>,
}

impl<'a, K: Ord, V> Iter<'a, K, V> {
    fn push_leftmost(&mut self, mut node: &'a Node<K, V>) {
        loop {
            self.stack.push((node, 0));
            match node {
                Node::Leaf { .. } => return,
                Node::Internal { children, .. } => {
                    // Revisit: child 0 is about to be entered.
                    self.stack.last_mut().expect("just pushed").1 = 1;
                    node = &children[0];
                }
            }
        }
    }

    /// Descends towards the first entry `>= lo`.
    fn push_from(&mut self, mut node: &'a Node<K, V>, lo: &K) {
        loop {
            match node {
                Node::Leaf { keys, .. } => {
                    let start = match keys.binary_search(lo) {
                        Ok(i) | Err(i) => i,
                    };
                    self.stack.push((node, start));
                    return;
                }
                Node::Internal { keys, children } => {
                    let idx = child_index(keys, lo);
                    self.stack.push((node, idx + 1));
                    node = &children[idx];
                }
            }
        }
    }
}

impl<'a, K: Ord, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (node, cursor) = self.stack.last_mut()?;
            match node {
                Node::Leaf { keys, vals } => {
                    if *cursor < keys.len() {
                        let i = *cursor;
                        *cursor += 1;
                        return Some((&keys[i], &vals[i]));
                    }
                    self.stack.pop();
                }
                Node::Internal { children, .. } => {
                    if *cursor < children.len() {
                        let child = &children[*cursor];
                        *cursor += 1;
                        // Manual push_leftmost on the child subtree.
                        let mut n: &Node<K, V> = child;
                        loop {
                            match n {
                                Node::Leaf { .. } => {
                                    self.stack.push((n, 0));
                                    break;
                                }
                                Node::Internal { children, .. } => {
                                    self.stack.push((n, 1));
                                    n = &children[0];
                                }
                            }
                        }
                    } else {
                        self.stack.pop();
                    }
                }
            }
        }
    }
}

/// Bounded range iterator (inclusive upper bound).
pub struct Range<'a, K, V> {
    inner: Iter<'a, K, V>,
    hi: K,
}

impl<'a, K: Ord, V> Iterator for Range<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let (k, v) = self.inner.next()?;
        if *k > self.hi {
            // Exhaust: later keys are even larger.
            self.inner.stack.clear();
            return None;
        }
        Some((k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t: BPlusTree<i64, ()> = BPlusTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(&1), None);
        assert_eq!(t.first_key(), None);
        assert_eq!(t.last_key(), None);
        assert_eq!(t.iter().count(), 0);
        t.check_invariants();
    }

    #[test]
    fn insert_get_small() {
        let mut t = BPlusTree::with_order(4);
        for i in [5, 1, 9, 3, 7] {
            assert_eq!(t.insert(i, i * 10), None);
        }
        assert_eq!(t.len(), 5);
        for i in [1, 3, 5, 7, 9] {
            assert_eq!(t.get(&i), Some(&(i * 10)));
        }
        assert_eq!(t.get(&2), None);
        assert_eq!(t.first_key(), Some(&1));
        assert_eq!(t.last_key(), Some(&9));
        t.check_invariants();
    }

    #[test]
    fn insert_replaces() {
        let mut t = BPlusTree::with_order(4);
        assert_eq!(t.insert(1, "a"), None);
        assert_eq!(t.insert(1, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&1), Some(&"b"));
    }

    #[test]
    fn many_inserts_keep_invariants() {
        let mut t = BPlusTree::with_order(4);
        // Shuffled-ish insertion order via a multiplicative stride.
        for i in 0..1000u64 {
            t.insert((i * 37) % 1000, i);
        }
        assert_eq!(t.len(), 1000);
        let height = t.check_invariants();
        assert!(
            height >= 4,
            "order-4 tree of 1000 keys is deep, got {height}"
        );
        let collected: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(collected, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn remove_everything_in_odd_order() {
        let mut t = BPlusTree::with_order(4);
        let n = 500u64;
        for i in 0..n {
            t.insert(i, i);
        }
        // Remove odds first, then evens, checking invariants throughout.
        for i in (1..n).step_by(2) {
            assert_eq!(t.remove(&i), Some(i));
            t.check_invariants();
        }
        for i in (0..n).step_by(2) {
            assert_eq!(t.remove(&i), Some(i));
            t.check_invariants();
        }
        assert!(t.is_empty());
        assert_eq!(t.remove(&0), None);
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t = BPlusTree::with_order(4);
        t.insert(1, ());
        assert_eq!(t.remove(&2), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..100 {
            t.insert(i * 2, ()); // evens 0..198
        }
        let got: Vec<i32> = t.range(&10, &20).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![10, 12, 14, 16, 18, 20]);
        // Bounds not present as keys.
        let got: Vec<i32> = t.range(&9, &21).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![10, 12, 14, 16, 18, 20]);
        // Empty range.
        assert_eq!(t.range(&21, &9).count(), 0);
        // Single point.
        let got: Vec<i32> = t.range(&10, &10).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![10]);
        // Past the end.
        assert_eq!(t.range(&500, &600).count(), 0);
    }

    #[test]
    fn range_from_scans_tail() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..50 {
            t.insert(i, ());
        }
        let got: Vec<i32> = t.range_from(&45).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![45, 46, 47, 48, 49]);
    }

    #[test]
    fn clear_resets() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..100 {
            t.insert(i, ());
        }
        t.clear();
        assert!(t.is_empty());
        t.check_invariants();
        t.insert(5, ());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn interleaved_insert_remove_against_model() {
        use std::collections::BTreeMap;
        let mut t = BPlusTree::with_order(5);
        let mut model = BTreeMap::new();
        // Deterministic pseudo-random ops.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for step in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 300) as i64;
            if x.is_multiple_of(3) {
                assert_eq!(t.remove(&key), model.remove(&key), "step {step}");
            } else {
                assert_eq!(t.insert(key, step), model.insert(key, step), "step {step}");
            }
            if step % 500 == 0 {
                t.check_invariants();
            }
        }
        t.check_invariants();
        let tree: Vec<_> = t.iter().map(|(k, v)| (*k, *v)).collect();
        let model: Vec<_> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(tree, model);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_unsorted_input() {
        BPlusTree::from_sorted(3, [(1, ()), (2, ()), (3, ()), (5, ()), (4, ())]);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_order_rejected() {
        BPlusTree::<i32, ()>::with_order(2);
    }

    #[test]
    fn works_at_minimum_order() {
        let mut t = BPlusTree::with_order(3);
        for i in 0..200 {
            t.insert(i, i);
            t.check_invariants();
        }
        for i in 0..200 {
            assert_eq!(t.remove(&i), Some(i));
            t.check_invariants();
        }
    }
}
