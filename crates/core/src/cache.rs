//! Placement caching — off the data path, kept for its last callers.
//!
//! Nothing under `crates/cluster` consults this module: `Cluster::get`
//! and `locate` walk Algorithm 1 on the view they pin, because the walk
//! (66–82 ns) is cheaper than a hit here (115–165 ns), let alone a miss
//! (393–466 ns; DESIGN §10). [`ShardedPlacementCache`] stays for
//! `benchmark/`'s `core.cache.*` probes and for the `cache-coherence` /
//! `cache-counters` model-checker models, which drive the type
//! directly; ROADMAP item 2 schedules its deletion.
//!
//! A placement is a pure function of `(object, version)` for a fixed
//! topology — membership tables are immutable once recorded — so cached
//! placements can never go stale; they only compete for space.
//! [`ShardedPlacementCache`] is N independently locked, FIFO-evicting
//! shards (key-hash routed), with hit/miss/contention counters
//! exported through [`crate::stats::CacheCounters`]. FIFO is a
//! deliberate simplification over LRU: entries are immutable and cheap
//! to recompute, so approximate retention is fine. Because placements
//! are immutable per `(object, version)`, entries cached under one epoch
//! stay correct forever — epoch transitions need no invalidation.
//!
//! ## Epoch-class keying
//!
//! Entries are keyed by `(object, epoch class)` rather than
//! `(object, version)`: the class of a version is the *first* version
//! whose membership table is content-equal
//! ([`crate::membership::MembershipHistory::epoch_class`]). Placement is
//! a pure function of (membership content, object), so every version of
//! a class shares one entry. The payoff is that epoch transitions which
//! *revisit* a membership — powering back to full, oscillating between
//! two sizes, the reintegration drain finishing at full power — resume
//! warm instead of refilling the cache from scratch. Entries of classes
//! no longer being queried are not swept eagerly; they age out through
//! ordinary FIFO capacity pressure, and each such lazy eviction (victim
//! class ≠ inserting class) is counted as an *epoch eviction* in the
//! cache stats.
//!
//! ## Engine keying
//!
//! The placement *engine* is part of the key as well: two views of the
//! same membership built with different engines map ids to different
//! nodes, so an entry computed under one backend is wrong for another.
//! Folding the engine into the key lets one cache serve views of any
//! engine with no invalidation protocol, the same way epochs do.

use crate::engine::EngineKind;
use crate::ids::{ObjectId, VersionId};
use crate::placement::{Placement, PlacementError};
use crate::stats::{CacheCounters, CacheSnapshot};
use crate::sync::{Mutex, MutexGuard};
use crate::view::ClusterView;
use std::collections::{HashMap, VecDeque};

/// Full cache key: object, epoch class, and the placement engine the
/// entry was computed under (module docs, "Engine keying").
type CacheKey = (ObjectId, VersionId, EngineKind);

/// One shard of the concurrent cache: a lean FIFO-evicting map. Global
/// hit/miss accounting lives in the parent's [`CacheCounters`], not here.
#[derive(Debug)]
struct CacheShard {
    capacity: usize,
    map: HashMap<CacheKey, Placement>,
    order: VecDeque<CacheKey>,
}

impl CacheShard {
    fn with_capacity(capacity: usize) -> Self {
        CacheShard {
            capacity,
            map: HashMap::with_capacity(capacity),
            order: VecDeque::with_capacity(capacity),
        }
    }

    /// Insert, returning how many evicted victims belonged to a
    /// different epoch class (or placement engine) than the inserted
    /// key — the lazy epoch-eviction count surfaced in the cache stats.
    fn insert(&mut self, key: CacheKey, placement: Placement) -> u64 {
        if self.map.contains_key(&key) {
            // A racing miss on the same key already inserted the same
            // immutable value; re-inserting would only duplicate the
            // FIFO entry.
            return 0;
        }
        let mut stale_evicted = 0u64;
        if self.map.len() >= self.capacity {
            // FIFO eviction; skip keys already evicted by re-insertion.
            while let Some(old) = self.order.pop_front() {
                if self.map.remove(&old).is_some() {
                    if old.1 != key.1 || old.2 != key.2 {
                        stale_evicted += 1;
                    }
                    break;
                }
            }
        }
        self.map.insert(key, placement);
        self.order.push_back(key);
        stale_evicted
    }
}

/// Mix an `(object, version, engine)` key into a shard index.
/// SplitMix64-style finalizer: deterministic across runs and platforms
/// (D1).
fn shard_hash(oid: ObjectId, version: VersionId, engine: EngineKind) -> u64 {
    let mut x = oid.raw()
        ^ version.raw().rotate_left(32)
        ^ (engine as u64).rotate_left(16)
        ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Thread-safe, N-way sharded placement cache.
///
/// Immutability per key makes this cache coherence-free: a `get` that
/// pins an old epoch's view and a concurrent `put` on the new epoch can
/// share it without any versioned invalidation protocol. Lock scope is
/// minimal — placements are computed *off* the shard lock, so a miss
/// never serializes other threads routed to the same shard.
#[derive(Debug)]
pub struct ShardedPlacementCache {
    /// Power-of-two shard vector; key-hash routed.
    shards: Vec<Mutex<CacheShard>>,
    /// `hash & mask` selects the shard.
    mask: u64,
    /// Global hit/miss/contention counters.
    counters: CacheCounters,
}

impl ShardedPlacementCache {
    /// Cache holding at most ~`capacity` placements across `shards`
    /// shards (rounded up to a power of two).
    ///
    /// # Panics
    /// Panics when `capacity == 0` or `shards == 0`.
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(shards > 0, "shard count must be positive");
        let n = shards.next_power_of_two();
        let per_shard = capacity.div_ceil(n).max(1);
        ShardedPlacementCache {
            shards: (0..n)
                .map(|_| Mutex::new(CacheShard::with_capacity(per_shard)))
                .collect(),
            mask: (n - 1) as u64,
            counters: CacheCounters::default(),
        }
    }

    /// Resolve `oid` at `version` through the cache. The result is
    /// identical to `view.place_at(oid, version)` — for *any* view
    /// snapshot of the same cluster, since placements are pure in the
    /// key and epoch classes are append-only facts of the shared
    /// history (an older snapshot assigns every version it knows the
    /// same class a newer one does).
    pub fn place_at(
        &self,
        view: &ClusterView,
        oid: ObjectId,
        version: VersionId,
    ) -> Result<Placement, PlacementError> {
        // Key by epoch class so content-equal memberships share entries
        // (module docs). Unrecorded versions fall through to the view,
        // which classifies them as errors — nothing gets cached.
        let class = view.history().epoch_class(version).unwrap_or(version);
        let key = (oid, class, view.engine());
        let idx = (shard_hash(oid, class, view.engine()) & self.mask) as usize;
        let Some(shard) = self.shards.get(idx) else {
            // Unreachable by construction (mask < shards.len()), but the
            // data path must stay panic-free: fall back to computing.
            return view.place_at(oid, version);
        };
        {
            let guard = self.lock_shard(shard);
            if let Some(p) = guard.map.get(&key) {
                self.counters.inc_hit();
                return Ok(p.clone());
            }
        }
        // Miss: compute off-lock so the walk doesn't serialize the shard.
        let p = view.place_at(oid, version)?;
        self.counters.inc_miss();
        let stale = self.lock_shard(shard).insert(key, p.clone());
        self.counters.add_epoch_evictions(stale);
        Ok(p)
    }

    /// Resolve at the view's current version.
    pub fn place_current(
        &self,
        view: &ClusterView,
        oid: ObjectId,
    ) -> Result<Placement, PlacementError> {
        self.place_at(view, oid, view.current_version())
    }

    /// Take the shard lock, counting a contention event when it is busy.
    fn lock_shard<'a>(&self, shard: &'a Mutex<CacheShard>) -> MutexGuard<'a, CacheShard> {
        match shard.try_lock() {
            Some(g) => g,
            None => {
                self.counters.inc_contention();
                shard.lock()
            }
        }
    }

    /// Point-in-time hit/miss/contention counters.
    pub fn snapshot(&self) -> CacheSnapshot {
        self.counters.snapshot()
    }

    /// Number of cached placements across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Drop every entry; counters survive (they are cumulative).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut g = s.lock();
            g.map.clear();
            g.order.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use crate::placement::Strategy;

    fn view() -> ClusterView {
        ClusterView::new(Layout::equal_work(10, 10_000), Strategy::Primary, 2)
    }

    #[test]
    fn sharded_results_match_direct_computation() {
        let mut v = view();
        v.resize(6);
        v.resize(10);
        let cache = ShardedPlacementCache::new(256, 8);
        for k in 0..300u64 {
            for ver in 1..=3u64 {
                let cached = cache.place_at(&v, ObjectId(k), VersionId(ver)).unwrap();
                let direct = v.place_at(ObjectId(k), VersionId(ver)).unwrap();
                assert_eq!(cached, direct, "oid {k} v{ver}");
            }
        }
        let s = cache.snapshot();
        assert_eq!(s.hits + s.misses, 900);
        assert!(s.misses <= 900);
    }

    #[test]
    fn sharded_old_epoch_entries_stay_valid_across_transitions() {
        let mut v = view();
        let cache = ShardedPlacementCache::new(1024, 4);
        // Populate under epoch 1.
        let olds: Vec<Placement> = (0..50u64)
            .map(|k| cache.place_at(&v, ObjectId(k), VersionId(1)).unwrap())
            .collect();
        // Epoch transitions happen; the cache is deliberately NOT
        // invalidated.
        v.resize(5);
        v.resize(10);
        v.resize(7);
        for (k, old) in olds.iter().enumerate() {
            // Old-epoch keys still serve the placement that epoch had...
            let again = cache
                .place_at(&v, ObjectId(k as u64), VersionId(1))
                .unwrap();
            assert_eq!(&again, old, "old epoch entry for oid {k}");
            assert_eq!(again, v.place_at(ObjectId(k as u64), VersionId(1)).unwrap());
            // ...and new-epoch keys resolve against the new membership.
            let fresh = cache
                .place_at(&v, ObjectId(k as u64), VersionId(4))
                .unwrap();
            assert_eq!(fresh, v.place_at(ObjectId(k as u64), VersionId(4)).unwrap());
        }
    }

    #[test]
    fn sharded_eviction_never_returns_a_wrong_placement() {
        let v = view();
        // Tiny cache so the sweep constantly evicts.
        let cache = ShardedPlacementCache::new(16, 4);
        for round in 0..3 {
            for k in 0..500u64 {
                let got = cache.place_current(&v, ObjectId(k)).unwrap();
                let want = v.place_current(ObjectId(k)).unwrap();
                assert_eq!(got, want, "round {round} oid {k}");
            }
        }
        // Capacity bound holds (per-shard capacity × shards).
        assert!(cache.len() <= 16 + cache.shard_count());
    }

    #[test]
    fn sharded_cache_is_safe_under_concurrent_readers() {
        let mut v = view();
        v.resize(6);
        v.resize(10);
        let cache = ShardedPlacementCache::new(2048, 4);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let cache = &cache;
                let v = &v;
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let oid = ObjectId((t * 131 + i) % 400);
                        let ver = VersionId(1 + (i % 3));
                        let got = cache.place_at(v, oid, ver).unwrap();
                        assert_eq!(got, v.place_at(oid, ver).unwrap());
                    }
                });
            }
        });
        let s = cache.snapshot();
        assert_eq!(s.hits + s.misses, 16_000);
        assert!(s.hits > 0, "repeated keys must hit");
    }

    #[test]
    fn repeated_memberships_share_epoch_class_entries() {
        let mut v = view();
        let cache = ShardedPlacementCache::new(1024, 4);
        // Warm the cache at full power (version 1).
        for k in 0..100u64 {
            cache.place_at(&v, ObjectId(k), VersionId(1)).unwrap();
        }
        let warmed = cache.snapshot();
        assert_eq!(warmed.misses, 100);
        // Power down and back to full: version 3 has version 1's class.
        v.resize(6);
        v.resize(10);
        for k in 0..100u64 {
            let got = cache.place_at(&v, ObjectId(k), VersionId(3)).unwrap();
            assert_eq!(got, v.place_at(ObjectId(k), VersionId(3)).unwrap());
        }
        let s = cache.snapshot();
        assert_eq!(
            s.misses, warmed.misses,
            "returning to a seen membership must not refill the cache"
        );
        assert_eq!(s.hits, warmed.hits + 100);
    }

    #[test]
    fn epoch_evictions_count_stale_class_victims() {
        let mut v = view();
        // One shard, tiny capacity: insertions at the new class must
        // evict the old class's entries one by one.
        let cache = ShardedPlacementCache::new(8, 1);
        for k in 0..8u64 {
            cache.place_at(&v, ObjectId(k), VersionId(1)).unwrap();
        }
        assert_eq!(cache.snapshot().epoch_evictions, 0);
        v.resize(6);
        for k in 0..8u64 {
            cache.place_at(&v, ObjectId(k), VersionId(2)).unwrap();
        }
        let s = cache.snapshot();
        assert_eq!(
            s.epoch_evictions, 8,
            "every class-1 victim displaced by a class-2 insert counts"
        );
        // Same-class churn is not an epoch eviction.
        for k in 100..120u64 {
            cache.place_at(&v, ObjectId(k), VersionId(2)).unwrap();
        }
        assert_eq!(cache.snapshot().epoch_evictions, s.epoch_evictions);
    }
}
