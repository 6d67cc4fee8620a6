//! The hot in-memory fragment tier above the persistent render cache.
//!
//! Under heavy serving traffic the same few fragments are read over and
//! over; a disk round-trip (plus checksum verification) per hit is pure
//! overhead once an entry is hot. This tier keeps *frequently accessed*
//! fragments resident as parsed [`Fragment`]s behind `Arc`, so a hot
//! hit is a hash lookup and a refcount bump.
//!
//! Policy:
//!
//! * **Byte-budgeted LRU.** A `BudgetLru` charged each entry's
//!   serialized byte size. An entry larger than the whole budget is
//!   never admitted.
//! * **Frequency-gated promotion.** An entry becomes resident only on
//!   its second access (ghost counters track non-resident
//!   keys), so a one-off scan cannot flush the hot set — the clock-like
//!   "second chance" half of LRU/clock.
//! * **No authority.** The tier holds copies of data whose truth lives
//!   on disk (or is re-renderable); it can be dropped at any time
//!   without correctness impact.

use crate::budget_lru::BudgetLru;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use v2v_container::Fragment;

/// Accesses after which a key becomes resident.
const PROMOTE_AFTER: u32 = 2;

/// Ghost (non-resident) frequency counters are bounded so an endless
/// stream of distinct keys cannot grow the map without limit; when the
/// cap is hit the counters reset, which only delays promotions.
const MAX_GHOSTS: usize = 65_536;

/// A byte-budgeted, frequency-promoted, in-memory fragment cache.
///
/// Shared by reference from a [`RenderCache`](crate::RenderCache); keys
/// are the cache's entry names so the two tiers address the same
/// namespace.
pub struct MemTier {
    resident: BudgetLru<String, Arc<Fragment>>,
    /// Access counts for keys not (yet) resident.
    ghosts: Mutex<HashMap<String, u32>>,
    hits: AtomicU64,
    promotions: AtomicU64,
}

impl std::fmt::Debug for MemTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTier")
            .field("budget_bytes", &self.budget_bytes())
            .field("bytes_held", &self.bytes_held())
            .field("hits", &self.hits())
            .field("promotions", &self.promotions())
            .finish()
    }
}

impl MemTier {
    /// A tier with the given byte budget.
    pub fn new(budget_bytes: u64) -> MemTier {
        MemTier {
            resident: BudgetLru::new(budget_bytes),
            ghosts: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.resident.budget()
    }

    /// Accesses promoted past the gate so far.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Lookups served from memory.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Resident entries evicted under budget pressure.
    pub fn evictions(&self) -> u64 {
        self.resident.evictions()
    }

    /// Bytes currently resident.
    pub fn bytes_held(&self) -> u64 {
        self.resident.weight()
    }

    /// Resident entry count.
    pub fn entries(&self) -> usize {
        self.resident.len()
    }

    /// Ghost counters are plain tallies, so a poisoned lock is recovered.
    fn ghosts(&self) -> std::sync::MutexGuard<'_, HashMap<String, u32>> {
        self.ghosts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `name`, refreshing its LRU position on a hit. A miss
    /// also counts one ghost access so a later [`admit`](MemTier::admit)
    /// can decide on promotion.
    pub fn get(&self, name: &str) -> Option<Arc<Fragment>> {
        if let Some(frag) = self.resident.get(name) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(frag);
        }
        let mut ghosts = self.ghosts();
        if ghosts.len() >= MAX_GHOSTS && !ghosts.contains_key(name) {
            ghosts.clear();
        }
        *ghosts.entry(name.to_string()).or_insert(0) += 1;
        None
    }

    /// Offers a fragment just read from the slower tier. It becomes
    /// resident if its access count (including the [`get`](MemTier::get)
    /// miss that preceded this call) has reached the promotion gate and
    /// it fits the budget.
    pub fn admit(&self, name: &str, frag: &Arc<Fragment>, bytes: u64) {
        if self.budget_bytes() == 0 || bytes > self.budget_bytes() {
            return;
        }
        {
            let mut ghosts = self.ghosts();
            if ghosts.get(name).copied().unwrap_or(0) < PROMOTE_AFTER {
                return;
            }
            ghosts.remove(name);
        }
        self.resident
            .insert(name.to_string(), Arc::clone(frag), bytes);
        self.promotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops `name` if resident — called when the disk tier evicts the
    /// entry, so memory never outlives the disk index.
    pub fn invalidate(&self, name: &str) {
        self.resident.remove(name);
        self.ghosts().remove(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_codec::CodecParams;
    use v2v_container::{fragment_to_bytes, StreamWriter};
    use v2v_frame::{Frame, FrameType};
    use v2v_time::{r, Rational};

    fn frag(n: usize, fill: u8) -> (Arc<Fragment>, u64) {
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, 4, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for i in 0..n {
            let mut f = Frame::black(ty);
            for v in f.plane_mut(0).data_mut() {
                *v = fill.wrapping_add(i as u8);
            }
            w.push_frame(&f).unwrap();
        }
        let frag = Fragment::from_stream(&w.finish().unwrap());
        let bytes = fragment_to_bytes(&frag).unwrap().len() as u64;
        (Arc::new(frag), bytes)
    }

    /// Two disk-tier reads: the access pattern that passes the gate.
    fn read_twice(tier: &MemTier, name: &str, f: &Arc<Fragment>, b: u64) {
        for _ in 0..2 {
            assert!(tier.get(name).is_none());
            tier.admit(name, f, b);
        }
    }

    #[test]
    fn promotion_requires_repeat_access() {
        let tier = MemTier::new(1 << 20);
        let (f, b) = frag(4, 1);
        // First access: miss, admitted but below the gate → not resident.
        assert!(tier.get("seg-a").is_none());
        tier.admit("seg-a", &f, b);
        assert_eq!(tier.entries(), 0, "one access must not promote");
        // Second access: miss again, now past the gate → resident.
        assert!(tier.get("seg-a").is_none());
        tier.admit("seg-a", &f, b);
        assert_eq!(tier.entries(), 1);
        assert_eq!(tier.promotions(), 1);
        // Third access is a memory hit.
        assert!(tier.get("seg-a").is_some());
        assert_eq!(tier.hits(), 1);
    }

    #[test]
    fn oversized_entry_is_never_admitted() {
        let (f, b) = frag(8, 4);
        let tier = MemTier::new(b / 2);
        read_twice(&tier, "seg-big", &f, b);
        assert_eq!(tier.entries(), 0);
    }

    #[test]
    fn invalidate_drops_resident_entry() {
        let tier = MemTier::new(1 << 20);
        let (f, b) = frag(4, 5);
        read_twice(&tier, "seg-a", &f, b);
        assert!(tier.get("seg-a").is_some());
        tier.invalidate("seg-a");
        assert_eq!(tier.entries(), 0);
        assert!(tier.get("seg-a").is_none());
    }

    #[test]
    fn zero_budget_disables_the_tier() {
        let tier = MemTier::new(0);
        let (f, b) = frag(4, 6);
        read_twice(&tier, "seg-a", &f, b);
        assert_eq!(tier.entries(), 0);
    }
}
