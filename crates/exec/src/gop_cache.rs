//! A shared cache of decoded GOPs.
//!
//! Grid and splice plans read the *same* source ranges from several
//! render segments: a 2×2 grid decodes each input once per cell, and
//! parallel segments of one clip re-roll the boundary GOPs. The cache
//! memoizes whole decoded GOPs behind [`Arc`], keyed by
//! `(video, keyframe index)`, so concurrent [`SourceCursor`]s decode each
//! GOP once and share the frames without copying.
//!
//! It is a `BudgetLru` weighed in frames plus a [`SingleFlight`] over
//! the same keys. The LRU keeps a GOP larger than the whole budget (the
//! cursor that asked for it still needs it) until the next insertion.
//!
//! [`SourceCursor`]: crate::SourceCursor

use crate::budget_lru::BudgetLru;
use crate::single_flight::{Join, SingleFlight};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use v2v_frame::Frame;

/// One decoded GOP: frames in presentation order starting at the
/// keyframe, each shared.
pub type GopFrames = Arc<Vec<Arc<Frame>>>;

type GopKey = (String, u64);

/// A thread-safe LRU cache of decoded GOPs, bounded by total frame count.
///
/// A capacity of `0` disables the cache (cursors fall back to private
/// sequential decoding).
///
/// [`get_or_insert_with`](GopCache::get_or_insert_with) gives exactly-once
/// decode semantics under concurrency: the first requester of a GOP
/// decodes it (a miss), every concurrent or later requester waits for /
/// reuses that result (a hit). This is what makes per-cursor hit/miss
/// accounting deterministic.
pub struct GopCache {
    lru: BudgetLru<GopKey, GopFrames>,
    flight: SingleFlight<GopKey, GopFrames>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for GopCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GopCache")
            .field("capacity_frames", &self.lru.budget())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl GopCache {
    /// A cache holding at most `capacity_frames` decoded frames.
    pub fn new(capacity_frames: usize) -> GopCache {
        GopCache {
            lru: BudgetLru::new(capacity_frames as u64),
            flight: SingleFlight::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether the cache can hold anything at all.
    pub fn enabled(&self) -> bool {
        self.lru.budget() > 0
    }

    fn hit(&self, frames: GopFrames) -> (GopFrames, bool) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        (frames, true)
    }

    /// Serves the GOP at keyframe `gop` of `video`, decoding it at most
    /// once process-wide: the first requester runs `decode` (counted as a
    /// miss), concurrent requesters of the same key block until that
    /// decode lands and then share it (counted as hits).
    ///
    /// Returns the frames plus `was_hit` so callers can attribute the
    /// hit/miss to themselves deterministically — the caller that paid
    /// for the decode sees `false`, everyone else `true`. A failed (or
    /// panicking) decode releases the key so a later requester can retry.
    pub fn get_or_insert_with<E>(
        &self,
        video: &str,
        gop: u64,
        decode: impl FnOnce() -> Result<GopFrames, E>,
    ) -> Result<(GopFrames, bool), E> {
        let key = (video.to_owned(), gop);
        loop {
            if let Some(frames) = self.lru.get(&key) {
                return Ok(self.hit(frames));
            }
            match self.flight.join(key.clone()) {
                Join::Leader(guard) => {
                    // A leader that drained between the lookup above and
                    // this join has already inserted the GOP.
                    if let Some(frames) = self.lru.get(&key) {
                        return Ok(self.hit(frames));
                    }
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let frames = decode()?;
                    self.lru.insert(key, frames.clone(), frames.len() as u64);
                    guard.publish(frames.clone());
                    return Ok((frames, false));
                }
                Join::Follower(Some(frames)) => return Ok(self.hit(frames)),
                // The leader failed: contend for the key again.
                Join::Follower(None) => {}
            }
        }
    }

    /// GOP lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// GOP lookups that required a decode.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Decoded frames currently held.
    pub fn frames_held(&self) -> usize {
        self.lru.weight() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_frame::FrameType;

    fn gop(n: usize) -> GopFrames {
        Arc::new(
            (0..n)
                .map(|_| Arc::new(Frame::black(FrameType::gray8(8, 8))))
                .collect(),
        )
    }

    fn fill(c: &GopCache, video: &str, at: u64, n: usize) -> bool {
        c.get_or_insert_with(video, at, || Ok::<_, ()>(gop(n)))
            .unwrap()
            .1
    }

    #[test]
    fn hit_and_miss_counting() {
        let c = GopCache::new(100);
        assert!(!fill(&c, "a", 0, 4));
        assert!(fill(&c, "a", 0, 4));
        assert!(!fill(&c, "a", 4, 4));
        assert!(!fill(&c, "b", 0, 4));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 3);
        assert_eq!(c.frames_held(), 12);
    }

    #[test]
    fn oversized_gop_still_usable() {
        // A single GOP larger than capacity is kept (the cursor needs it)
        // but evicted as soon as a second entry lands.
        let c = GopCache::new(2);
        assert!(!fill(&c, "v", 0, 5));
        assert!(fill(&c, "v", 0, 5));
        assert!(!fill(&c, "v", 5, 5));
        assert!(!fill(&c, "v", 0, 5), "the oversized GOP was evicted");
    }

    #[test]
    fn failed_decode_releases_the_key() {
        let c = GopCache::new(100);
        let err: Result<_, &str> = c.get_or_insert_with("v", 0, || Err("decoder broke"));
        assert!(err.is_err());
        // The key must not stay marked in-flight: a retry decodes anew.
        let (frames, was_hit) = c
            .get_or_insert_with("v", 0, || Ok::<_, &str>(gop(2)))
            .unwrap();
        assert_eq!(frames.len(), 2);
        assert!(!was_hit);
    }

    #[test]
    fn was_hit_attributes_the_decode() {
        let c = GopCache::new(100);
        let (_, first) = c
            .get_or_insert_with("v", 0, || Ok::<_, ()>(gop(3)))
            .unwrap();
        let (_, second) = c
            .get_or_insert_with("v", 0, || -> Result<_, ()> { panic!("must not re-decode") })
            .unwrap();
        assert!(!first, "first requester pays for the decode");
        assert!(second, "second requester hits");
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let c = GopCache::new(0);
        assert!(!c.enabled());
        assert!(GopCache::new(1).enabled());
    }
}
