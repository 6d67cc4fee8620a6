//! The one budgeted LRU behind every cache tier.
//!
//! Decoded GOPs ([`GopCache`](crate::GopCache), weighed in frames),
//! resident fragments ([`MemTier`](crate::MemTier), in bytes) and the
//! on-disk render-cache index ([`RenderCache`](crate::RenderCache), in
//! file bytes) are all one policy: entries carry a weight, and while
//! the total exceeds the budget the least-recently-touched entry goes.
//! Each tier layers its own admission policy on top (promotion gate,
//! oversize refusal); this type only keeps order and weight.
//!
//! Order is strict LRU by last touch: a stamp per entry and a
//! stamp-ordered index, so a touch and an eviction are each one
//! `O(log n)` step instead of a scan.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard, PoisonError};

struct Entry<V> {
    value: V,
    weight: u64,
    stamp: u64,
}

struct Inner<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Entry keys by last-touch stamp, oldest first.
    order: BTreeMap<u64, K>,
    weight: u64,
    next_stamp: u64,
    evictions: u64,
}

impl<K: Hash + Eq, V> Inner<K, V> {
    fn stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }
}

/// A thread-safe, weight-budgeted, strict-LRU map.
pub struct BudgetLru<K, V> {
    inner: Mutex<Inner<K, V>>,
    budget: u64,
}

impl<K, V> std::fmt::Debug for BudgetLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BudgetLru")
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> BudgetLru<K, V> {
    /// An empty map holding at most `budget` total weight (beyond the
    /// single most recent entry, which is always kept).
    pub fn new(budget: u64) -> Self {
        BudgetLru {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                weight: 0,
                next_stamp: 0,
                evictions: 0,
            }),
            budget,
        }
    }

    /// The map holds only memoized data (no invariant spans an unwind),
    /// so a poisoned lock is recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, making it the most recently used entry.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut inner = self.lock();
        let stamp = inner.stamp();
        let inner = &mut *inner;
        let entry = inner.map.get_mut(key)?;
        let k = inner
            .order
            .remove(&entry.stamp)
            .expect("order indexes every entry");
        entry.stamp = stamp;
        inner.order.insert(stamp, k);
        Some(entry.value.clone())
    }

    /// Inserts (or replaces) `key` as the most recently used entry, then
    /// evicts least-recently-used entries while the total weight exceeds
    /// the budget. The entry just inserted is never evicted by its own
    /// insertion. Returns the evicted pairs, oldest first.
    pub fn insert(&self, key: K, value: V, weight: u64) -> Vec<(K, V)> {
        let mut inner = self.lock();
        let stamp = inner.stamp();
        inner.order.insert(stamp, key.clone());
        let entry = Entry {
            value,
            weight,
            stamp,
        };
        if let Some(old) = inner.map.insert(key, entry) {
            inner.order.remove(&old.stamp);
            inner.weight -= old.weight;
        }
        inner.weight += weight;
        let mut evicted = Vec::new();
        while inner.weight > self.budget && inner.map.len() > 1 {
            // The new entry holds the newest stamp, so with another
            // entry present the oldest is never it.
            let (_, k) = inner.order.pop_first().expect("order indexes every entry");
            let old = inner.map.remove(&k).expect("order indexes every entry");
            inner.weight -= old.weight;
            inner.evictions += 1;
            evicted.push((k, old.value));
        }
        evicted
    }

    /// Removes `key`, returning its value. Not counted as an eviction.
    pub fn remove<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut inner = self.lock();
        let old = inner.map.remove(key)?;
        inner.order.remove(&old.stamp);
        inner.weight -= old.weight;
        Some(old.value)
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Total weight held.
    pub fn weight(&self) -> u64 {
        self.lock().weight
    }

    /// The configured budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Entries evicted under budget pressure so far.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(evicted: Vec<(&'static str, u32)>) -> Vec<&'static str> {
        evicted.into_iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn get_refreshes_touch_order() {
        let lru = BudgetLru::new(10);
        lru.insert("a", 1, 4);
        lru.insert("b", 2, 4);
        assert_eq!(lru.get("a"), Some(1)); // now "b" is the oldest
        assert_eq!(keys(lru.insert("c", 3, 4)), ["b"]);
        assert_eq!(lru.get("a"), Some(1));
        assert_eq!(lru.get("b"), None);
        assert_eq!(lru.get("c"), Some(3));
    }

    #[test]
    fn weight_stays_within_the_budget() {
        let lru = BudgetLru::new(10);
        for (i, k) in ["a", "b", "c", "d", "e"].into_iter().enumerate() {
            lru.insert(k, i as u32, 3);
            assert!(lru.weight() <= lru.budget());
        }
        assert_eq!((lru.len(), lru.weight(), lru.evictions()), (3, 9, 2));
        // Replacing an entry re-weighs it instead of double-counting.
        lru.insert("e", 9, 1);
        assert_eq!((lru.len(), lru.weight()), (3, 7));
    }

    #[test]
    fn the_entry_just_inserted_is_never_evicted() {
        let lru = BudgetLru::new(4);
        lru.insert("a", 1, 2);
        // Larger than the whole budget: everything else goes, it stays.
        assert_eq!(keys(lru.insert("big", 2, 9)), ["a"]);
        assert_eq!(lru.get("big"), Some(2));
        assert_eq!(lru.weight(), 9);
        // ...until the next insertion makes it the oldest.
        assert_eq!(keys(lru.insert("b", 3, 1)), ["big"]);
    }

    #[test]
    fn remove_drops_the_entry_and_its_weight() {
        let lru = BudgetLru::new(10);
        lru.insert("a", 1, 4);
        lru.insert("b", 2, 4);
        assert_eq!(lru.remove("a"), Some(1));
        assert_eq!(lru.remove("a"), None);
        assert_eq!((lru.len(), lru.weight(), lru.evictions()), (1, 4, 0));
        // The removed key no longer occupies a place in the order.
        assert!(lru.insert("c", 3, 6).is_empty());
    }

    #[test]
    fn evicted_pairs_are_returned_oldest_first() {
        let lru = BudgetLru::new(6);
        lru.insert("a", 1, 2);
        lru.insert("b", 2, 2);
        lru.insert("c", 3, 2);
        assert_eq!(lru.insert("d", 4, 5), vec![("a", 1), ("b", 2), ("c", 3)]);
        assert_eq!((lru.len(), lru.weight()), (1, 5));
    }
}
