//! The one single-flight primitive behind every sharing tier.
//!
//! Work is deduplicated at three grains — decoded GOPs
//! ([`GopCache`](crate::GopCache)), rendered segment fragments
//! ([`FragmentFlight`](crate::FragmentFlight)) and whole daemon responses
//! (the serve layer's plan-fingerprint registry) — and all three use
//! this type. The first caller to [`join`](SingleFlight::join) a key
//! becomes the **leader** and does the work; everyone arriving while
//! the work is in flight blocks and receives the leader's published
//! value.
//!
//! Failure is not sticky: a leader that drops its guard without
//! publishing (an error, an early return or a panic) removes its slot
//! at once, and every follower it had receives `None` and falls back on
//! its own. The next caller to join leads afresh — it never follows a
//! failed slot, so a caller that retries on `None` blocks on the new
//! leader instead of spinning.
//!
//! Slot lifetime: with no followers, publishing removes the slot at
//! once; otherwise the last follower to leave removes it. A later
//! sequential repeat therefore goes to the cache tier the caller keeps
//! next to the flight, never to a stale slot.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

struct Slot<V> {
    /// `None` while the leader is working (followers block on the
    /// condvar), then the published value. A failed leader removes its
    /// slot instead.
    value: Option<V>,
    /// Followers still to drain; the last one out removes the slot.
    waiters: usize,
    /// Tells a follower whether the slot under its key is still the
    /// one it joined: a missing or newer slot means its leader failed.
    generation: u64,
}

/// Exactly-once publish/subscribe on keys: one leader per key in
/// flight, any number of followers.
pub struct SingleFlight<K, V> {
    slots: Mutex<HashMap<K, Slot<V>>>,
    done: Condvar,
    generations: AtomicU64,
    published: AtomicU64,
    shared: AtomicU64,
}

impl<K, V> Default for SingleFlight<K, V> {
    fn default() -> Self {
        SingleFlight {
            slots: Mutex::new(HashMap::new()),
            done: Condvar::new(),
            generations: AtomicU64::new(0),
            published: AtomicU64::new(0),
            shared: AtomicU64::new(0),
        }
    }
}

impl<K, V> std::fmt::Debug for SingleFlight<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleFlight")
            .field("published", &self.published())
            .field("shared", &self.shared())
            .finish()
    }
}

/// Result of [`SingleFlight::join`].
pub enum Join<'a, K: Hash + Eq, V> {
    /// This caller does the work. It must
    /// [`publish`](FlightGuard::publish), or drop the guard, which
    /// hands every follower `None`.
    Leader(FlightGuard<'a, K, V>),
    /// Another caller led the key; `None` means the leader failed.
    Follower(Option<V>),
}

/// Leadership of one in-flight key. Publishing (or dropping) releases
/// every follower.
pub struct FlightGuard<'a, K: Hash + Eq, V> {
    flight: &'a SingleFlight<K, V>,
    key: K,
    released: bool,
}

impl<K: Hash + Eq, V> FlightGuard<'_, K, V> {
    /// Hands `value` to every follower and releases the key.
    pub fn publish(mut self, value: V) {
        self.released = true;
        self.flight.release(&self.key, Some(value));
        self.flight.published.fetch_add(1, Ordering::Relaxed);
    }
}

impl<K: Hash + Eq, V> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.released {
            // The leader failed (error, early return or panic): wake
            // followers empty-handed rather than leave them blocked.
            self.flight.release(&self.key, None);
        }
    }
}

impl<K, V> SingleFlight<K, V> {
    /// An empty flight.
    pub fn new() -> Self {
        SingleFlight::default()
    }

    /// Values published by leaders so far.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Followers that received a published value.
    pub fn shared(&self) -> u64 {
        self.shared.load(Ordering::Relaxed)
    }

    /// The slot map holds no invariant that an unwind could break, so
    /// a poisoned lock is recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, HashMap<K, Slot<V>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Keys whose leader is still working.
    pub fn inflight(&self) -> usize {
        let slots = self.lock();
        slots.values().filter(|s| s.value.is_none()).count()
    }

    /// Followers currently blocked on (or draining from) a leader that
    /// has not failed.
    pub fn waiting(&self) -> usize {
        self.lock().values().map(|s| s.waiters).sum()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> SingleFlight<K, V> {
    /// Joins the flight for `key`: the first caller leads; callers
    /// arriving before the leader releases block and follow.
    pub fn join(&self, key: K) -> Join<'_, K, V> {
        let mut slots = self.lock();
        let Some(slot) = slots.get_mut(&key) else {
            slots.insert(
                key.clone(),
                Slot {
                    value: None,
                    waiters: 0,
                    generation: self.generations.fetch_add(1, Ordering::Relaxed),
                },
            );
            return Join::Leader(FlightGuard {
                flight: self,
                key,
                released: false,
            });
        };
        slot.waiters += 1;
        let generation = slot.generation;
        loop {
            let Some(slot) = slots.get_mut(&key).filter(|s| s.generation == generation) else {
                // The leader failed and removed the slot (a newer one
                // may already run under the same key).
                return Join::Follower(None);
            };
            if let Some(value) = &slot.value {
                let value = value.clone();
                slot.waiters -= 1;
                if slot.waiters == 0 {
                    slots.remove(&key);
                }
                self.shared.fetch_add(1, Ordering::Relaxed);
                return Join::Follower(Some(value));
            }
            // Still running (or a spurious wakeup): wait again.
            slots = self
                .done
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<K: Hash + Eq, V> SingleFlight<K, V> {
    /// True while a leader is working on `key`.
    pub fn is_inflight(&self, key: &K) -> bool {
        let slots = self.lock();
        slots.get(key).is_some_and(|s| s.value.is_none())
    }

    /// Marks `key` done and wakes every follower. A published slot with
    /// followers stays until they drain; any other slot goes at once.
    fn release(&self, key: &K, value: Option<V>) {
        let mut slots = self.lock();
        if let Some(slot) = slots.get_mut(key) {
            match value {
                Some(value) if slot.waiters > 0 => slot.value = Some(value),
                _ => {
                    slots.remove(key);
                }
            }
        }
        drop(slots);
        self.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn lead(flight: &SingleFlight<u64, u32>, key: u64) -> FlightGuard<'_, u64, u32> {
        match flight.join(key) {
            Join::Leader(guard) => guard,
            Join::Follower(_) => panic!("key {key} must lead"),
        }
    }

    /// Blocks until `n` followers wait on the flight.
    fn await_waiters(flight: &SingleFlight<u64, u32>, n: usize) {
        while flight.waiting() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn exactly_one_leader_under_contention() {
        let flight = SingleFlight::<u64, u32>::new();
        let leads = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| match flight.join(99) {
                    Join::Leader(guard) => {
                        leads.fetch_add(1, Ordering::SeqCst);
                        // Publish only once every other caller follows.
                        await_waiters(&flight, 7);
                        guard.publish(7);
                    }
                    Join::Follower(value) => assert_eq!(value, Some(7)),
                });
            }
        });
        assert_eq!(leads.load(Ordering::SeqCst), 1, "exactly one leader");
        assert_eq!(flight.published(), 1);
        assert_eq!(flight.shared(), 7);
        assert_eq!((flight.inflight(), flight.waiting()), (0, 0));
    }

    #[test]
    fn dropped_guard_gives_followers_none() {
        let flight = SingleFlight::<u64, u32>::new();
        std::thread::scope(|scope| {
            let guard = lead(&flight, 5);
            let follower = scope.spawn(|| match flight.join(5) {
                Join::Follower(value) => assert_eq!(value, None, "a failed leader shares nothing"),
                Join::Leader(_) => panic!("must follow while the key is led"),
            });
            await_waiters(&flight, 1);
            drop(guard);
            follower.join().unwrap();
        });
        assert_eq!((flight.published(), flight.shared()), (0, 0));
    }

    #[test]
    fn panicking_leader_releases_followers() {
        let flight = SingleFlight::<u64, u32>::new();
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                let _guard = lead(&flight, 6);
                await_waiters(&flight, 1);
                panic!("leader blew up");
            });
            while !flight.is_inflight(&6) {
                std::thread::yield_now();
            }
            assert!(matches!(flight.join(6), Join::Follower(None)));
            assert!(leader.join().is_err());
        });
        assert_eq!(flight.inflight(), 0);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let flight = SingleFlight::<u64, u32>::new();
        let a = lead(&flight, 1);
        let b = lead(&flight, 2);
        assert_eq!(flight.inflight(), 2);
        a.publish(1);
        assert!(!flight.is_inflight(&1));
        assert!(flight.is_inflight(&2));
        b.publish(2);
        assert_eq!(flight.inflight(), 0);
        assert_eq!(flight.shared(), 0);
    }

    #[test]
    fn a_drained_key_leads_afresh() {
        let flight = SingleFlight::<u64, u32>::new();
        // Published with no followers: the slot goes at once.
        lead(&flight, 3).publish(1);
        // Published to a follower: the follower's exit removes it.
        std::thread::scope(|scope| {
            let guard = lead(&flight, 3);
            let follower = scope.spawn(|| flight.join(3));
            await_waiters(&flight, 1);
            guard.publish(2);
            assert!(matches!(follower.join().unwrap(), Join::Follower(Some(2))));
        });
        // Failed: the key is free again at once — whether or not the
        // follower has woken yet, the next caller leads rather than
        // follow the failed slot, and the follower still sees its own
        // leader's failure, not the new flight.
        std::thread::scope(|scope| {
            let guard = lead(&flight, 3);
            let follower = scope.spawn(|| flight.join(3));
            await_waiters(&flight, 1);
            drop(guard);
            let again = lead(&flight, 3);
            assert!(matches!(follower.join().unwrap(), Join::Follower(None)));
            again.publish(3);
        });
        assert_eq!((flight.inflight(), flight.waiting()), (0, 0));
    }

    #[test]
    fn waiting_and_inflight_count_followers_and_leaders() {
        let flight = SingleFlight::<u64, u32>::new();
        assert!(!flight.is_inflight(&4));
        std::thread::scope(|scope| {
            let guard = lead(&flight, 4);
            assert!(flight.is_inflight(&4));
            let followers: Vec<_> = (0..3).map(|_| scope.spawn(|| flight.join(4))).collect();
            await_waiters(&flight, 3);
            assert_eq!((flight.inflight(), flight.waiting()), (1, 3));
            guard.publish(9);
            for f in followers {
                assert!(matches!(f.join().unwrap(), Join::Follower(Some(9))));
            }
        });
        assert_eq!((flight.inflight(), flight.waiting()), (0, 0));
        assert_eq!(flight.shared(), 3);
    }
}
