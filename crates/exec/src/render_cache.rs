//! The persistent, content-addressed render cache.
//!
//! VSS-style cross-query reuse: rendered bytes are the expensive thing
//! V2V produces, and most production query streams repeat themselves —
//! the same highlight reel requested twice, two dashboards asking for
//! overlapping windows of one camera. The cache persists two kinds of
//! entries under one directory, both in the checksummed [`Fragment`]
//! format:
//!
//! * **whole results** (`res-<fingerprint>.svf`) — keyed by the
//!   canonical plan fingerprint
//!   ([`v2v_plan::fingerprint::plan_fingerprint`]); a repeat query is
//!   answered by reading packets back, zero decode, zero encode;
//! * **per-segment fragments** (`seg-<key>.svf`) — keyed by
//!   [`v2v_plan::fingerprint::segment_keys`]; an *overlapping* query
//!   whose plan shares segments with an earlier one splices the shared
//!   fragments by stream copy and renders only the novel remainder.
//!
//! Three properties the serving layer depends on:
//!
//! * **Crash safety.** Writes go to a temp file in the same directory
//!   and are published by `rename` — a reader never observes a torn
//!   entry, and leftover temp files from a crash are swept at open.
//! * **Corruption tolerance.** Every read verifies the fragment
//!   checksum; a bad entry (bit rot, truncation, a meddling process) is
//!   evicted and the caller re-renders. Classified as
//!   [`ErrorKind::CorruptData`] internally, never a panic.
//! * **Bounded footprint.** The index is a `BudgetLru` by file bytes;
//!   the just-inserted entry is never evicted by its own insertion, and
//!   an evicted entry's file is unlinked and its memory-tier copy
//!   dropped. A hit in either tier refreshes the entry's place.
//!
//! [`ErrorKind::CorruptData`]: v2v_container::ContainerError::BadFile

use crate::budget_lru::BudgetLru;
use crate::mem_tier::MemTier;
use crate::single_flight::SingleFlight;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use v2v_container::{fragment_to_bytes, read_fragment, Fragment, VideoStream};

/// Render-cache activity for one run, embedded in
/// [`ExecStats`](crate::ExecStats) and the trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Whole results served straight from the cache.
    #[serde(default)]
    pub result_hits: u64,
    /// Segments spliced from cached fragments instead of rendered.
    #[serde(default)]
    pub segment_hits: u64,
    /// Entries evicted during the run (budget pressure or corruption).
    #[serde(default)]
    pub evictions: u64,
    /// Compressed bytes reused from the cache instead of re-produced.
    #[serde(default)]
    pub bytes_reused: u64,
    /// Whole responses coalesced into an identical in-flight render
    /// (daemon single-flight by plan fingerprint).
    #[serde(default)]
    pub inflight_hits: u64,
    /// Segments received from another run's concurrent render instead
    /// of rendered here ([`FragmentFlight`] subscription).
    #[serde(default)]
    pub shared_segment_hits: u64,
    /// Cache hits (result or segment) served by the in-memory tier
    /// without touching disk. Also counted in `result_hits` /
    /// `segment_hits`; this field attributes the tier.
    #[serde(default)]
    pub mem_hits: u64,
    /// Segments whose fragments were produced by a remote worker
    /// (coordinator dispatch) instead of rendered in-process.
    #[serde(default)]
    pub remote_segments: u64,
}

impl CacheStats {
    /// Component-wise sum.
    pub fn merge(mut self, other: CacheStats) -> CacheStats {
        self.result_hits += other.result_hits;
        self.segment_hits += other.segment_hits;
        self.evictions += other.evictions;
        self.bytes_reused += other.bytes_reused;
        self.inflight_hits += other.inflight_hits;
        self.shared_segment_hits += other.shared_segment_hits;
        self.mem_hits += other.mem_hits;
        self.remote_segments += other.remote_segments;
        self
    }
}

/// Which tier served a cache hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTier {
    /// Served from the in-memory hot tier, no disk I/O.
    Memory,
    /// Read (and checksum-verified) from the persistent directory.
    Disk,
}

/// In-flight single-flight registry for segment fragments, shared by
/// every engine run that participates in work sharing (one per daemon).
///
/// When two concurrent plans contain the same cacheable segment, the
/// disk cache only helps if one finishes before the other starts. The
/// flight closes that window: the first worker to reach a key leads the
/// render, and everyone arriving while it is in flight receives the
/// leader's fragment. Ordering invariant (the reason duplicates are
/// impossible rather than unlikely): callers join the flight **before**
/// consulting the memory/disk tiers, and a leader stores to disk
/// **before** publishing, so a latecomer either follows the flight or
/// finds the entry on disk. A follower handed `None` (the leader
/// failed) renders locally.
pub type FragmentFlight = SingleFlight<u64, Arc<Fragment>>;

/// A persistent, byte-budgeted, content-addressed cache of rendered
/// fragments and whole results. Thread-safe: the serving daemon shares
/// one instance across concurrent jobs.
pub struct RenderCache {
    dir: PathBuf,
    /// Entry names weighed in file bytes; the files are the truth. It
    /// holds the budget (`u64::MAX` for unbounded) and counts budget
    /// evictions.
    index: BudgetLru<String, ()>,
    /// Entries dropped because their file was corrupt or missing.
    corrupt_evictions: AtomicU64,
    tmp_seq: AtomicU64,
    /// Optional hot tier above the directory; entries are promoted on
    /// access frequency and consulted before any disk read.
    mem: Option<MemTier>,
}

impl std::fmt::Debug for RenderCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RenderCache")
            .field("dir", &self.dir)
            .field("budget_bytes", &self.budget_bytes())
            .field("bytes_held", &self.bytes_held())
            .field("evictions", &self.evictions())
            .finish()
    }
}

fn result_name(fingerprint: u64) -> String {
    format!("res-{fingerprint:016x}.svf")
}

fn segment_name(key: u64) -> String {
    format!("seg-{key:016x}.svf")
}

impl RenderCache {
    /// Opens (or creates) a cache rooted at `dir` with the given byte
    /// budget, seeding the LRU order from entry modification times and
    /// sweeping temp files left by a crashed writer.
    pub fn open(dir: impl AsRef<Path>, budget_bytes: u64) -> std::io::Result<RenderCache> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut found: Vec<(String, u64, std::time::SystemTime)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
                continue;
            }
            if !name.ends_with(".svf") {
                continue;
            }
            let meta = entry.metadata()?;
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            found.push((name, meta.len(), mtime));
        }
        found.sort_by_key(|(_, _, mtime)| *mtime);
        let cache = RenderCache {
            dir,
            // A zero budget means unbounded.
            index: BudgetLru::new(if budget_bytes == 0 {
                u64::MAX
            } else {
                budget_bytes
            }),
            corrupt_evictions: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
            mem: None,
        };
        // Restore the budget a crash (or a smaller budget) may have
        // broken: keep the newest entries that fit — what seeding them
        // oldest first through the LRU would leave — and discard the
        // rest. Pruning before indexing keeps it out of the eviction
        // count: no run is in flight yet.
        let mut held = 0u64;
        let mut kept = Vec::new();
        for (name, bytes, _) in found.into_iter().rev() {
            let fits = cache.admits(bytes) && {
                held = held.saturating_add(bytes);
                held <= cache.index.budget()
            };
            if fits {
                kept.push((name, bytes));
            } else {
                cache.discard(&name);
            }
        }
        for (name, bytes) in kept.into_iter().rev() {
            cache.insert(name, bytes);
        }
        Ok(cache)
    }

    /// Attaches a hot in-memory tier with the given byte budget (0
    /// disables it). Builder-style; call before sharing the cache.
    #[must_use]
    pub fn with_mem_tier(mut self, budget_bytes: u64) -> RenderCache {
        self.mem = (budget_bytes > 0).then(|| MemTier::new(budget_bytes));
        self
    }

    /// The in-memory tier, if one is attached.
    pub fn mem_tier(&self) -> Option<&MemTier> {
        self.mem.as_ref()
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured byte budget (0 = unbounded).
    pub fn budget_bytes(&self) -> u64 {
        match self.index.budget() {
            u64::MAX => 0,
            budget => budget,
        }
    }

    /// Entries evicted since open (budget pressure or corruption).
    pub fn evictions(&self) -> u64 {
        self.index.evictions() + self.corrupt_evictions.load(Ordering::Relaxed)
    }

    /// Total bytes currently indexed.
    pub fn bytes_held(&self) -> u64 {
        self.index.weight()
    }

    /// Number of entries currently indexed.
    pub fn entries(&self) -> usize {
        self.index.len()
    }

    /// Serves `name` from the memory tier, refreshing its place in the
    /// disk index too so a hot entry is not the disk tier's LRU victim.
    fn mem_get(&self, name: &str) -> Option<Arc<Fragment>> {
        let frag = self.mem.as_ref()?.get(name)?;
        self.index.get(name);
        Some(frag)
    }

    /// Looks up a cached whole result, reporting which tier served it.
    pub fn load_result_tiered(&self, fingerprint: u64) -> Option<(VideoStream, CacheTier)> {
        let name = result_name(fingerprint);
        if let Some(frag) = self.mem_get(&name) {
            // A resident fragment was validated when it was read from
            // disk; a conversion failure here means memory corruption —
            // drop it and fall through to disk.
            match (*frag).clone().into_stream() {
                Ok(stream) => return Some((stream, CacheTier::Memory)),
                Err(_) => {
                    if let Some(mem) = &self.mem {
                        mem.invalidate(&name);
                    }
                }
            }
        }
        let frag = Arc::new(self.load(&name)?);
        match (*frag).clone().into_stream() {
            Ok(stream) => {
                if let Some(mem) = &self.mem {
                    mem.admit(&name, &frag, frag.byte_size());
                }
                Some((stream, CacheTier::Disk))
            }
            Err(_) => {
                self.evict_corrupt(&name);
                None
            }
        }
    }

    /// Looks up a cached segment fragment, reporting which tier served
    /// it. The fragment is shared (`Arc`) so a memory hit copies
    /// nothing.
    pub fn load_segment_tiered(&self, key: u64) -> Option<(Arc<Fragment>, CacheTier)> {
        let name = segment_name(key);
        if let Some(frag) = self.mem_get(&name) {
            return Some((frag, CacheTier::Memory));
        }
        let frag = Arc::new(self.load(&name)?);
        if let Some(mem) = &self.mem {
            mem.admit(&name, &frag, frag.byte_size());
        }
        Some((frag, CacheTier::Disk))
    }

    /// Stores a whole result under the plan fingerprint. Best-effort:
    /// an I/O failure leaves the cache without the entry, nothing more.
    pub fn store_result(&self, fingerprint: u64, stream: &VideoStream) -> std::io::Result<()> {
        let frag = Fragment::from_stream(stream);
        self.store(&result_name(fingerprint), &frag)
    }

    /// Stores a rendered segment fragment under its key.
    pub fn store_segment(&self, key: u64, frag: &Fragment) -> std::io::Result<()> {
        self.store(&segment_name(key), frag)
    }

    fn load(&self, name: &str) -> Option<Fragment> {
        self.index.get(name)?;
        match read_fragment(self.dir.join(name)) {
            Ok(frag) => Some(frag),
            Err(_) => {
                // Corrupt (checksum, truncation) or vanished: evict so
                // the slot is re-rendered, never surfaced.
                self.evict_corrupt(name);
                None
            }
        }
    }

    fn store(&self, name: &str, frag: &Fragment) -> std::io::Result<()> {
        let bytes = fragment_to_bytes(frag)
            .map_err(|e| std::io::Error::other(format!("fragment encode: {e}")))?;
        if !self.admits(bytes.len() as u64) {
            return Ok(());
        }
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{name}.{}.{seq}.tmp", std::process::id()));
        std::fs::write(&tmp, &bytes)?;
        // Publish atomically; a concurrent writer of the same key simply
        // wins the rename race with identical content.
        std::fs::rename(&tmp, self.dir.join(name))?;
        self.insert(name.to_string(), bytes.len() as u64);
        Ok(())
    }

    /// An entry larger than the whole budget is refused: storing it
    /// would only evict everything else and then itself on the next
    /// insert.
    fn admits(&self, bytes: u64) -> bool {
        bytes <= self.index.budget()
    }

    /// Indexes `name`, discarding whatever the budget evicts.
    fn insert(&self, name: String, bytes: u64) {
        for (victim, ()) in self.index.insert(name, (), bytes) {
            self.discard(&victim);
        }
    }

    /// Drops a corrupt entry, counted as an eviction exactly once even
    /// under concurrent detection.
    fn evict_corrupt(&self, name: &str) {
        if self.index.remove(name).is_some() {
            self.discard(name);
            self.corrupt_evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Unlinks an entry no longer indexed and drops its memory copy.
    fn discard(&self, name: &str) {
        let _ = std::fs::remove_file(self.dir.join(name));
        if let Some(mem) = &self.mem {
            mem.invalidate(name);
        }
    }
}

/// Per-run segment-cache context threaded through
/// [`ExecOptions`](crate::ExecOptions): the shared tiers plus this
/// plan's per-segment keys (aligned with `plan.segments`; `None` marks
/// an uncacheable segment). Either tier may be absent — a daemon with
/// no `--cache-dir` still shares in-flight renders, and a one-shot
/// `v2v run` uses the disk cache without a flight.
#[derive(Debug, Default)]
pub struct SegmentCacheCtx {
    /// The shared persistent cache (with optional memory tier).
    pub cache: Option<Arc<RenderCache>>,
    /// The in-flight single-flight registry for concurrent sharing.
    pub flight: Option<Arc<FragmentFlight>>,
    /// Per-segment keys from [`v2v_plan::fingerprint::segment_keys`].
    pub keys: Vec<Option<u64>>,
    /// Optional remote dispatch hook (coordinator role): consulted for
    /// keyed whole segments that miss every local tier, before the
    /// in-process render.
    pub remote: Option<Arc<dyn crate::remote::RemoteRenderer>>,
}

impl SegmentCacheCtx {
    /// The cache key for segment `seg_index`, if it is cacheable.
    pub fn key(&self, seg_index: usize) -> Option<u64> {
        self.keys.get(seg_index).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_codec::CodecParams;
    use v2v_container::StreamWriter;
    use v2v_frame::{Frame, FrameType};
    use v2v_time::{r, Rational};

    fn sample_fragment(n: usize, fill: u8) -> Fragment {
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
        Fragment::from_stream(&w.finish().unwrap())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("v2v_render_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_load_round_trip_and_persistence() {
        let dir = temp_dir("round_trip");
        let frag = sample_fragment(6, 10);
        {
            let cache = RenderCache::open(&dir, 1 << 20).unwrap();
            cache.store_segment(42, &frag).unwrap();
            let (back, _) = cache.load_segment_tiered(42).unwrap();
            assert_eq!(back.len(), 6);
            assert!(cache.load_segment_tiered(43).is_none());
        }
        // A fresh open over the same directory sees the entry.
        let cache = RenderCache::open(&dir, 1 << 20).unwrap();
        assert_eq!(cache.entries(), 1);
        assert!(cache.load_segment_tiered(42).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_evicted_not_surfaced() {
        let dir = temp_dir("corrupt");
        let cache = RenderCache::open(&dir, 1 << 20).unwrap();
        cache.store_segment(7, &sample_fragment(5, 3)).unwrap();
        // Flip a byte in the packet table on disk.
        let path = dir.join(segment_name(7));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            cache.load_segment_tiered(7).is_none(),
            "corrupt entry must miss"
        );
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.entries(), 0);
        assert!(!path.exists(), "corrupt file must be deleted");
        // The slot is reusable.
        cache.store_segment(7, &sample_fragment(5, 3)).unwrap();
        assert!(cache.load_segment_tiered(7).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let dir = temp_dir("budget");
        let frag = sample_fragment(8, 1);
        let one = fragment_to_bytes(&frag).unwrap().len() as u64;
        // Room for two entries, not three.
        let cache = RenderCache::open(&dir, one * 2 + one / 2).unwrap();
        cache.store_segment(1, &frag).unwrap();
        cache.store_segment(2, &frag).unwrap();
        assert_eq!(cache.evictions(), 0);
        // Touch 1 so 2 is the LRU victim.
        assert!(cache.load_segment_tiered(1).is_some());
        cache.store_segment(3, &frag).unwrap();
        assert!(cache.evictions() >= 1);
        assert!(cache.bytes_held() <= cache.budget_bytes());
        assert!(cache.load_segment_tiered(2).is_none(), "LRU victim gone");
        assert!(cache.load_segment_tiered(1).is_some());
        assert!(cache.load_segment_tiered(3).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_temp_files_and_over_budget_dirs() {
        let dir = temp_dir("sweep");
        {
            let cache = RenderCache::open(&dir, 1 << 20).unwrap();
            for k in 0..4 {
                cache
                    .store_segment(k, &sample_fragment(8, k as u8))
                    .unwrap();
            }
        }
        std::fs::write(dir.join("seg-dead.svf.123.tmp"), b"torn write").unwrap();
        // Reopen with a budget that fits only ~2 entries.
        let one = fragment_to_bytes(&sample_fragment(8, 0)).unwrap().len() as u64;
        let cache = RenderCache::open(&dir, one * 2 + one / 2).unwrap();
        assert!(cache.bytes_held() <= cache.budget_bytes());
        assert!(!dir.join("seg-dead.svf.123.tmp").exists());
        // Open-time pruning is not charged to any run.
        assert_eq!(cache.evictions(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_entries_rebuild_streams() {
        let dir = temp_dir("result");
        let cache = RenderCache::open(&dir, 1 << 20).unwrap();
        let frag = sample_fragment(6, 9);
        let stream = frag.clone().into_stream().unwrap();
        cache.store_result(0xabcd, &stream).unwrap();
        let (back, _) = cache.load_result_tiered(0xabcd).unwrap();
        assert_eq!(back.len(), stream.len());
        assert_eq!(back.content_digest(), stream.content_digest());
        assert!(cache.load_result_tiered(0xabce).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_tier_serves_repeats_without_disk() {
        let dir = temp_dir("mem_tier");
        let cache = RenderCache::open(&dir, 1 << 20)
            .unwrap()
            .with_mem_tier(1 << 20);
        cache.store_segment(11, &sample_fragment(6, 4)).unwrap();
        // First load: disk (counts one mem-tier access).
        let (_, tier) = cache.load_segment_tiered(11).unwrap();
        assert_eq!(tier, CacheTier::Disk);
        // Second load: disk again, but now past the promotion gate.
        let (_, tier) = cache.load_segment_tiered(11).unwrap();
        assert_eq!(tier, CacheTier::Disk);
        // Third load: memory — survives deleting the backing file.
        std::fs::remove_file(dir.join(segment_name(11))).unwrap();
        let (frag, tier) = cache.load_segment_tiered(11).unwrap();
        assert_eq!(tier, CacheTier::Memory);
        assert_eq!(frag.len(), 6);
        assert_eq!(cache.mem_tier().unwrap().hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_entries_promote_to_mem_tier() {
        let dir = temp_dir("mem_result");
        let cache = RenderCache::open(&dir, 1 << 20)
            .unwrap()
            .with_mem_tier(1 << 20);
        let stream = sample_fragment(5, 8).into_stream().unwrap();
        cache.store_result(0x77, &stream).unwrap();
        assert_eq!(cache.load_result_tiered(0x77).unwrap().1, CacheTier::Disk);
        assert_eq!(cache.load_result_tiered(0x77).unwrap().1, CacheTier::Disk);
        let (back, tier) = cache.load_result_tiered(0x77).unwrap();
        assert_eq!(tier, CacheTier::Memory);
        assert_eq!(back.content_digest(), stream.content_digest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_eviction_spares_mem_hot_entries_and_drops_evicted_ones() {
        let dir = temp_dir("mem_disk_lru");
        let frag = sample_fragment(8, 1);
        let one = fragment_to_bytes(&frag).unwrap().len() as u64;
        // Disk room for two entries, not three; memory room for all.
        let cache = RenderCache::open(&dir, one * 2 + one / 2)
            .unwrap()
            .with_mem_tier(1 << 20);
        cache.store_segment(1, &frag).unwrap();
        cache.store_segment(2, &frag).unwrap();
        // Two disk reads each promote both entries to memory; 1 was
        // read first, so it is now the disk index's oldest entry.
        for key in [1, 1, 2, 2] {
            assert_eq!(cache.load_segment_tiered(key).unwrap().1, CacheTier::Disk);
        }
        assert_eq!(cache.mem_tier().unwrap().entries(), 2);
        // A memory hit on 1 refreshes it on disk too, so 2 is the victim.
        assert_eq!(cache.load_segment_tiered(1).unwrap().1, CacheTier::Memory);
        cache.store_segment(3, &frag).unwrap();
        assert_eq!(cache.evictions(), 1);
        assert!(dir.join(segment_name(1)).exists(), "hot entry kept on disk");
        assert!(!dir.join(segment_name(2)).exists(), "LRU victim unlinked");
        // The disk victim left the memory tier with it.
        assert_eq!(cache.mem_tier().unwrap().entries(), 1);
        assert_eq!(cache.load_segment_tiered(1).unwrap().1, CacheTier::Memory);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_entry_is_not_stored() {
        let dir = temp_dir("oversized");
        let cache = RenderCache::open(&dir, 64).unwrap();
        cache.store_segment(5, &sample_fragment(8, 2)).unwrap();
        assert_eq!(
            cache.entries(),
            0,
            "entry larger than the budget is skipped"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
