//! Memoized warm device images, instance-scoped or process-wide.
//!
//! Every trial under one `(TrialConfig, vendor)` pair shares the same
//! configuration-derived warm-up, so its [`pfault_ssd::DeviceImage`] is
//! a pure function of
//! [`crate::platform::TestPlatform::config_digest`]. A
//! [`SnapshotCache`] runs the warm-up once per digest and hands every
//! subsequent caller — including workers on other threads, and later
//! campaigns in the same process — a shared `Arc` of the frozen image;
//! trials [`pfault_ssd::DeviceImage::clone_cow`] it, which shares the
//! flash arena instead of deep-copying the device.
//!
//! The campaign engines use the [`global`] instance so separate
//! campaigns in one process share warm-ups. Harnesses that need
//! different retention policy build their own:
//!
//! ```
//! use pfault_platform::snapcache::SnapshotCache;
//!
//! let cache = SnapshotCache::builder()
//!     .capacity(4)          // keep at most 4 configurations (FIFO)
//!     .delta_chaining(true) // store derived images as deltas
//!     .build();
//! # let _ = cache;
//! ```
//!
//! With `delta_chaining` on, an inserted image that *evolved from* an
//! already-cached one (sweep points sharing a warm prefix) is stored as
//! [`pfault_ssd::DeviceImage::delta_from`] — one shared arena plus a
//! small overlay of differing blocks — instead of a second flattened
//! copy.
//!
//! Capture happens *while holding the lock* on purpose: concurrent
//! workers asking for the same configuration then wait for the one
//! warm-up instead of each replaying it. Because of that, a panicking
//! trial (the campaign engine runs each trial under `catch_unwind`) can
//! poison the mutex. Cache contents stay valid across such a panic —
//! entries are only ever inserted whole — so every lock site *recovers*
//! from poisoning instead of propagating it;
//! [`SnapshotCacheStats::poison_recoveries`] counts how often that
//! happened.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use serde::{Deserialize, Serialize};

use pfault_ssd::DeviceImage;

use crate::platform::TestPlatform;

/// Counters for one [`SnapshotCache`]. Monotonic (except across
/// [`SnapshotCache::reset`]), so benchmarks measure deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run the warm-up.
    pub misses: u64,
    /// Distinct configurations currently cached.
    pub entries: u64,
    /// Entries dropped by the FIFO capacity bound.
    pub evictions: u64,
    /// Entries stored as deltas over an earlier image
    /// (`delta_chaining` only).
    pub delta_images: u64,
    /// Times a lock acquisition found the mutex poisoned by a panicked
    /// trial and recovered it.
    pub poison_recoveries: u64,
}

impl SnapshotCacheStats {
    /// Hits over total lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// The monotonic counters since `baseline` (saturating, so a
    /// concurrent [`SnapshotCache::reset`] yields zeros rather than
    /// wrapping). `entries` is instantaneous, not a delta.
    pub fn delta_since(&self, baseline: &SnapshotCacheStats) -> SnapshotCacheStats {
        SnapshotCacheStats {
            hits: self.hits.saturating_sub(baseline.hits),
            misses: self.misses.saturating_sub(baseline.misses),
            entries: self.entries,
            evictions: self.evictions.saturating_sub(baseline.evictions),
            delta_images: self.delta_images.saturating_sub(baseline.delta_images),
            poison_recoveries: self
                .poison_recoveries
                .saturating_sub(baseline.poison_recoveries),
        }
    }
}

/// A scoped view over one cache's counters: captures a baseline when
/// opened and reports only what happened since. Daemon-hosted jobs each
/// open a scope so their reports attribute hits/misses to *that* job
/// instead of accumulating process-wide drift across every job the
/// daemon ever ran.
///
/// Scoped hit/miss attribution is *digest-deduplicated*: while a scope
/// is open the cache journals each lookup's digest, and the scope
/// counts a miss only the **first** time it sees a digest. A
/// planner-driven multi-round job whose warm image gets evicted between
/// rounds (capacity pressure from concurrent jobs) re-warms a
/// configuration it already paid for — from the job's point of view
/// that is a hit on its own working set, not a fresh miss, and before
/// this dedup such jobs over-reported misses round after round. The
/// cumulative [`SnapshotCache::stats`] counters are unaffected.
#[derive(Debug)]
pub struct StatsScope<'a> {
    cache: &'a SnapshotCache,
    baseline: SnapshotCacheStats,
    journal_start: usize,
}

impl StatsScope<'_> {
    /// Counter deltas since the scope opened (see
    /// [`SnapshotCacheStats::delta_since`]), with hits/misses taken
    /// from the scope's deduplicated lookup journal.
    pub fn delta(&self) -> SnapshotCacheStats {
        let mut delta = self.cache.stats().delta_since(&self.baseline);
        let state = self.cache.lock();
        let slice = state.journal.get(self.journal_start..).unwrap_or(&[]);
        let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut hits = 0u64;
        let mut misses = 0u64;
        for &(digest, was_hit) in slice {
            let repeat = !seen.insert(digest);
            if was_hit || repeat {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        delta.hits = hits;
        delta.misses = misses;
        delta
    }

    /// The baseline captured when the scope opened.
    pub fn baseline(&self) -> SnapshotCacheStats {
        self.baseline
    }
}

impl Drop for StatsScope<'_> {
    fn drop(&mut self) {
        // Last scope out clears the journal so an idle cache holds no
        // lookup history.
        if self.cache.active_scopes.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.cache.lock().journal.clear();
        }
    }
}

/// Configures a [`SnapshotCache`]. Obtained from
/// [`SnapshotCache::builder`]; every knob is optional.
#[derive(Debug, Clone)]
pub struct SnapshotCacheBuilder {
    capacity: Option<usize>,
    delta_chaining: bool,
}

impl SnapshotCacheBuilder {
    /// Retain at most `n` configurations, evicting the oldest insertion
    /// first. Unbounded by default.
    #[must_use]
    pub fn capacity(mut self, n: usize) -> Self {
        self.capacity = Some(n.max(1));
        self
    }

    /// Store an inserted image as a delta over an already-cached image
    /// it evolved from, sharing one flash arena across the chain. Off
    /// by default: campaign trials restore fastest from a flattened
    /// image (empty overlay), so chaining is a memory-for-speed trade
    /// meant for wide sweeps.
    #[must_use]
    pub fn delta_chaining(mut self, enabled: bool) -> Self {
        self.delta_chaining = enabled;
        self
    }

    /// Builds the cache.
    pub fn build(self) -> SnapshotCache {
        SnapshotCache {
            state: Mutex::new(CacheState::default()),
            capacity: self.capacity,
            delta_chaining: self.delta_chaining,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            delta_images: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
            active_scopes: AtomicU64::new(0),
        }
    }
}

#[derive(Default)]
struct CacheState {
    entries: HashMap<u64, Arc<DeviceImage>>,
    /// Insertion order: FIFO eviction victims and delta-base candidates.
    order: Vec<u64>,
    /// `(digest, was_hit)` per lookup, recorded only while at least one
    /// [`StatsScope`] is open (and cleared when the last one closes) —
    /// the raw material for deduplicated scoped attribution.
    journal: Vec<(u64, bool)>,
}

/// A digest-keyed memo of warm [`DeviceImage`]s. See the module docs.
pub struct SnapshotCache {
    state: Mutex<CacheState>,
    capacity: Option<usize>,
    delta_chaining: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    delta_images: AtomicU64,
    poison_recoveries: AtomicU64,
    /// Open [`StatsScope`]s; lookups are journalled only while > 0.
    active_scopes: AtomicU64,
}

impl std::fmt::Debug for SnapshotCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCache")
            .field("capacity", &self.capacity)
            .field("delta_chaining", &self.delta_chaining)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for SnapshotCache {
    fn default() -> Self {
        SnapshotCache::builder().build()
    }
}

impl SnapshotCache {
    /// Starts configuring a cache: unbounded, no delta chaining.
    pub fn builder() -> SnapshotCacheBuilder {
        SnapshotCacheBuilder {
            capacity: None,
            delta_chaining: false,
        }
    }

    /// Locks the state, recovering from a mutex poisoned by a panicked
    /// trial: images are inserted whole under the lock, so the map is
    /// structurally sound even when the panic interrupted a warm-up —
    /// at worst the interrupted digest is simply absent and re-warms.
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(|poisoned| {
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    /// The image for `digest`, running `build` (under the lock) on the
    /// first request and memoizing the result for every later caller.
    /// The core primitive behind [`SnapshotCache::warm_image_for`];
    /// exposed for harnesses that derive images some other way (e.g. a
    /// sweep extending one warm prefix).
    pub fn image_for(&self, digest: u64, build: impl FnOnce() -> DeviceImage) -> Arc<DeviceImage> {
        let mut state = self.lock();
        let journalling = self.active_scopes.load(Ordering::SeqCst) > 0;
        if let Some(image) = state.entries.get(&digest).map(Arc::clone) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if journalling {
                state.journal.push((digest, true));
            }
            return image;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if journalling {
            state.journal.push((digest, false));
        }
        let image = build();
        let stored = match self.delta_base_for(&state, &image) {
            Some(delta) => {
                self.delta_images.fetch_add(1, Ordering::Relaxed);
                Arc::new(delta)
            }
            None => Arc::new(image),
        };
        state.entries.insert(digest, Arc::clone(&stored));
        state.order.push(digest);
        if let Some(cap) = self.capacity {
            while state.order.len() > cap {
                let oldest = state.order.remove(0);
                state.entries.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        stored
    }

    /// With `delta_chaining` on, finds the newest cached image `image`
    /// can be re-expressed against and returns the delta (images that
    /// share no history reject the rebase, so probing an unrelated
    /// candidate costs one prefix comparison).
    fn delta_base_for(&self, state: &CacheState, image: &DeviceImage) -> Option<DeviceImage> {
        if !self.delta_chaining {
            return None;
        }
        state
            .order
            .iter()
            .rev()
            .filter_map(|d| state.entries.get(d))
            .find_map(|base| image.delta_from(base))
    }

    /// The warm image for this platform's configuration, running the
    /// warm-up on first request. Callers gate on `warmup_requests > 0`
    /// themselves — a zero-warm-up image is legal but pointless (it is
    /// just a cold device).
    pub fn warm_image_for(&self, platform: &TestPlatform) -> Arc<DeviceImage> {
        self.image_for(platform.config_digest(), || platform.warm_image())
    }

    /// Current counters.
    pub fn stats(&self) -> SnapshotCacheStats {
        let entries = self.lock().entries.len() as u64;
        SnapshotCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            evictions: self.evictions.load(Ordering::Relaxed),
            delta_images: self.delta_images.load(Ordering::Relaxed),
            poison_recoveries: self.poison_recoveries.load(Ordering::Relaxed),
        }
    }

    /// Opens a [`StatsScope`] over this cache: a handle whose
    /// [`StatsScope::delta`] reports only activity after this call,
    /// with repeat lookups of the same digest attributed as hits.
    pub fn scope(&self) -> StatsScope<'_> {
        self.active_scopes.fetch_add(1, Ordering::SeqCst);
        let journal_start = self.lock().journal.len();
        StatsScope {
            cache: self,
            baseline: self.stats(),
            journal_start,
        }
    }

    /// Drops every cached image and zeroes the counters (benchmark
    /// harnesses use this to isolate phases).
    pub fn reset(&self) {
        let mut state = self.lock();
        state.entries.clear();
        state.order.clear();
        state.journal.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.delta_images.store(0, Ordering::Relaxed);
        self.poison_recoveries.store(0, Ordering::Relaxed);
    }
}

static GLOBAL: OnceLock<SnapshotCache> = OnceLock::new();

/// The process-wide cache the campaign engines share: unbounded, no
/// delta chaining (flattened images restore fastest).
pub fn global() -> &'static SnapshotCache {
    GLOBAL.get_or_init(SnapshotCache::default)
}

/// [`SnapshotCache::warm_image_for`] on the [`global`] cache.
pub fn warm_image_for(platform: &TestPlatform) -> Arc<DeviceImage> {
    global().warm_image_for(platform)
}

/// [`SnapshotCache::stats`] of the [`global`] cache.
pub fn stats() -> SnapshotCacheStats {
    global().stats()
}

/// [`SnapshotCache::reset`] on the [`global`] cache.
pub fn reset() {
    global().reset()
}

/// [`SnapshotCache::scope`] on the [`global`] cache — the per-job
/// attribution handle for daemon-hosted campaigns.
pub fn scope() -> StatsScope<'static> {
    global().scope()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::TrialConfig;

    fn warm_platform(warmup: usize) -> TestPlatform {
        let mut c = TrialConfig::paper_default();
        c.ssd.geometry = pfault_flash::FlashGeometry::new(1 << 14, 256);
        c.ssd.ftl = pfault_ftl::FtlConfig::for_geometry(c.ssd.geometry);
        c.workload = pfault_workload::WorkloadSpec::builder()
            .wss_bytes(4 * pfault_sim::storage::GIB)
            .build();
        TestPlatform::new(c.with_warmup_requests(warmup))
    }

    #[test]
    fn same_config_shares_one_image() {
        let platform = warm_platform(16);
        let a = warm_image_for(&platform);
        let b = warm_image_for(&platform);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn different_configs_get_different_images() {
        let a = warm_image_for(&warm_platform(16));
        let b = warm_image_for(&warm_platform(17));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.config_digest(), b.config_digest());
    }

    #[test]
    fn cached_image_matches_a_fresh_capture() {
        let platform = warm_platform(18);
        let cached = warm_image_for(&platform);
        assert_eq!(cached.fingerprint(), platform.warm_image().fingerprint());
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        let cache = SnapshotCache::builder().capacity(2).build();
        let old = warm_platform(11);
        let mid = warm_platform(12);
        let new = warm_platform(13);
        let _ = cache.warm_image_for(&old);
        let _ = cache.warm_image_for(&mid);
        let _ = cache.warm_image_for(&new); // evicts `old`
        let before = cache.stats();
        assert_eq!(before.entries, 2);
        assert_eq!(before.evictions, 1);
        let _ = cache.warm_image_for(&mid); // still cached
        let _ = cache.warm_image_for(&old); // re-warms
        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses + 1);
    }

    #[test]
    fn delta_chaining_stores_derived_images_as_deltas() {
        use pfault_ssd::device::HostCommand;
        use pfault_sim::{Lba, SectorCount, SimDuration};

        let cache = SnapshotCache::builder().delta_chaining(true).build();
        let platform = warm_platform(20);
        let base = cache.warm_image_for(&platform);

        // A "later sweep point": more work on a clone of the base.
        let derived = cache.image_for(base.config_digest() ^ 1, || {
            let mut ssd = base.clone_cow();
            for i in 0..4 {
                ssd.submit(HostCommand::write(
                    500 + i,
                    0,
                    Lba::new(4096 + i * 8),
                    SectorCount::new(8),
                    0x5EED + i,
                ));
                ssd.advance_to(ssd.now() + SimDuration::from_millis(2));
                ssd.drain_completions();
            }
            ssd.quiesce();
            let digest = ssd.state_digest();
            let image = ssd.capture(base.config_digest() ^ 1);
            assert_eq!(image.fingerprint(), digest);
            image
        });
        assert!(
            derived.shares_base_with(&base),
            "a derived image must be chained onto the base arena"
        );
        assert!(derived.overlay_blocks() > 0);
        assert_eq!(cache.stats().delta_images, 1);

        // An unrelated config cannot chain and stays flattened.
        let other = cache.warm_image_for(&warm_platform(21));
        assert_eq!(other.overlay_blocks(), 0);
        assert_eq!(cache.stats().delta_images, 1);
    }

    #[test]
    fn poisoned_lock_recovers_and_later_campaigns_complete() {
        use crate::campaign::{Campaign, CampaignConfig};

        // An active cache with a live entry…
        let platform = warm_platform(21);
        let first = warm_image_for(&platform);

        // …poisoned by a panic while the lock is held — what a trial
        // dying mid-capture under the campaign's catch_unwind does.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = global().state.lock().unwrap_or_else(|e| e.into_inner());
            panic!("trial died while capturing a warm image");
        }));

        // Every lock site must recover instead of propagating: lookups
        // still serve the intact entry, stats still read, and the
        // recovery is counted.
        let again = warm_image_for(&platform);
        assert!(
            Arc::ptr_eq(&first, &again),
            "poison recovery must keep serving the cached image"
        );
        assert!(
            stats().poison_recoveries >= 1,
            "recoveries must be counted: {:?}",
            stats()
        );

        // And an image-cached campaign run after the poisoning — the
        // "rest of the campaign" from the cache's point of view — still
        // completes with every trial accounted for.
        let mut config = CampaignConfig::paper_default();
        config.trial.ssd.geometry = pfault_flash::FlashGeometry::new(1 << 14, 256);
        config.trial.ssd.ftl = pfault_ftl::FtlConfig::for_geometry(config.trial.ssd.geometry);
        config.trial.workload = pfault_workload::WorkloadSpec::builder()
            .wss_bytes(4 * pfault_sim::storage::GIB)
            .build();
        config.trial = config.trial.with_warmup_requests(8);
        config.trials = 3;
        config.requests_per_trial = 20;
        let report = Campaign::new(config, 31).run_auto().unwrap();
        assert_eq!(report.faults, 3);
        assert_eq!(
            report.failures.total_failed(),
            0,
            "campaign after a poisoned cache must still complete: {:?}",
            report.failures
        );
    }

    #[test]
    fn scoped_stats_attribute_only_their_own_lookups() {
        let cache = SnapshotCache::default();
        // "Job A" warms two configurations.
        let _ = cache.warm_image_for(&warm_platform(31));
        let _ = cache.warm_image_for(&warm_platform(32));
        assert_eq!(cache.stats().misses, 2, "job A cost two warm-ups");

        // "Job B" opens a scope: its view starts at zero even though
        // the cache already has history.
        let scope = cache.scope();
        assert_eq!(scope.delta().hits, 0);
        assert_eq!(scope.delta().misses, 0);
        let _ = cache.warm_image_for(&warm_platform(31)); // hit (A's entry)
        let _ = cache.warm_image_for(&warm_platform(33)); // miss (new)
        let d = scope.delta();
        assert_eq!(d.hits, 1, "job B saw exactly one hit: {d:?}");
        assert_eq!(d.misses, 1, "job B saw exactly one miss: {d:?}");
        // The cumulative counters kept their drift.
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(scope.baseline().misses, 2);
    }

    #[test]
    fn scoped_rounds_do_not_recount_rewarmed_configs_as_misses() {
        // Regression: a planner-driven multi-round job re-looks-up its
        // warm image every round. If capacity pressure evicted it
        // between rounds, the re-warm is a *global* miss — but within
        // the job's scope it is a repeat of a digest the job already
        // paid for, and must be attributed as a hit.
        let cache = SnapshotCache::builder().capacity(1).build();
        let round_cfg = warm_platform(41);
        let rival_cfg = warm_platform(42);

        let scope = cache.scope();
        let _ = cache.warm_image_for(&round_cfg); // round 1: fresh miss
        let _ = cache.warm_image_for(&rival_cfg); // rival job evicts it
        let _ = cache.warm_image_for(&round_cfg); // round 2: re-warm
        let _ = cache.warm_image_for(&round_cfg); // round 3: true hit

        let d = scope.delta();
        assert_eq!(
            d.misses, 2,
            "one fresh miss per distinct config, not per round: {d:?}"
        );
        assert_eq!(
            d.hits, 2,
            "the round-2 re-warm counts as a hit in the scope: {d:?}"
        );
        // The cumulative counters still tell the global truth.
        let s = cache.stats();
        assert_eq!(s.misses, 3, "globally the re-warm was a real miss");
        assert_eq!(s.hits, 1);
        assert_eq!(s.evictions, 2);
        drop(scope);

        // With every scope closed the journal is discarded.
        assert!(cache.lock().journal.is_empty());
    }

    #[test]
    fn scope_survives_a_concurrent_reset() {
        let cache = SnapshotCache::default();
        let _ = cache.warm_image_for(&warm_platform(34));
        let scope = cache.scope();
        cache.reset();
        // Counters went backwards; the delta saturates at zero instead
        // of wrapping to u64::MAX.
        let d = scope.delta();
        assert_eq!(d.hits, 0);
        assert_eq!(d.misses, 0);
    }

    #[test]
    fn hit_rate_is_a_fraction() {
        let platform = warm_platform(19);
        let _ = warm_image_for(&platform);
        let _ = warm_image_for(&platform);
        let s = stats();
        assert!(s.hits >= 1, "second lookup counted as a hit: {s:?}");
        assert!(s.entries >= 1);
        assert!((0.0..=1.0).contains(&s.hit_rate()));
    }
}
