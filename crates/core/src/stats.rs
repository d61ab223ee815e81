//! Data-distribution analysis helpers and the placement cache's
//! counters.
//!
//! The helpers back the equal-work layout validation (Figure 5's per-rank
//! block counts) and the disruption analyses (how many replicas move
//! between two membership versions). [`CacheCounters`] counts the
//! stand-alone [`crate::cache::ShardedPlacementCache`]; the live
//! cluster's event counters are one set in `ech_cluster::counters`.

use crate::ids::{ObjectId, VersionId};
use crate::sync::{counter_observed_u64, counter_u64, AtomicU64, Ordering};
use crate::view::ClusterView;

/// Counters for the sharded placement cache: hits, misses and shard-lock
/// contention events. Shared by reference from the lock-free read path.
///
/// Hits and misses are packed into one atomic (`hits << 32 | misses`) so
/// a snapshot observes the pair *coherently*: a single load can never
/// see a hit that its concurrent miss-count contradicts, which keeps
/// derived figures (`hits + misses == ops`, hit ratio) exact even while
/// the counters are being bumped. The trade-off is a u32 range per half
/// (~4.3 × 10⁹ events each) — plenty for any bench or test run; a
/// production build that could overflow it would widen the packing, not
/// split the pair.
#[derive(Debug)]
pub struct CacheCounters {
    /// Packed `hits << 32 | misses`.
    hits_misses: AtomicU64,
    shard_contention: AtomicU64,
    /// Entries of a stale epoch class lazily evicted on capacity
    /// pressure (see the cache module docs on epoch-class keying).
    epoch_evictions: AtomicU64,
}

/// Bit offset of the hit count inside the packed pair.
const HIT_SHIFT: u32 = 32;

impl Default for CacheCounters {
    fn default() -> Self {
        CacheCounters {
            hits_misses: counter_observed_u64(0),
            shard_contention: counter_u64(0),
            epoch_evictions: counter_u64(0),
        }
    }
}

impl CacheCounters {
    /// One placement served from the cache.
    pub fn inc_hit(&self) {
        self.hits_misses
            .fetch_add(1 << HIT_SHIFT, Ordering::Relaxed);
    }

    /// One placement computed from the ring and inserted.
    pub fn inc_miss(&self) {
        self.hits_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// One shard lock found busy on first try (the caller then blocked).
    pub fn inc_contention(&self) {
        self.shard_contention.fetch_add(1, Ordering::Relaxed);
    }

    /// Account `n` stale-epoch entries lazily evicted by insertions.
    pub fn add_epoch_evictions(&self, n: u64) {
        if n > 0 {
            self.epoch_evictions.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the counters. The hit/miss pair comes
    /// from one atomic load, so it is coherent by construction.
    pub fn snapshot(&self) -> CacheSnapshot {
        let packed = self.hits_misses.load(Ordering::Relaxed);
        CacheSnapshot {
            hits: packed >> HIT_SHIFT,
            misses: packed & u64::from(u32::MAX),
            shard_contention: self.shard_contention.load(Ordering::Relaxed),
            epoch_evictions: self.epoch_evictions.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`CacheCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Placements served from the cache.
    pub hits: u64,
    /// Placements computed from the ring (and inserted).
    pub misses: u64,
    /// Shard locks found busy on first try.
    pub shard_contention: u64,
    /// Stale-epoch-class entries lazily evicted by insertions.
    pub epoch_evictions: u64,
}

impl CacheSnapshot {
    /// Hit ratio in `[0, 1]` (0 when nothing was looked up).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Replica count per server (index = server index) for `oids` placed at
/// `version`.
///
/// Unplaceable objects (placement error) are skipped; for well-formed
/// views every object places.
pub fn replica_distribution(view: &ClusterView, oids: &[ObjectId], version: VersionId) -> Vec<u64> {
    let mut counts = vec![0u64; view.server_count()];
    for &oid in oids {
        if let Ok(p) = view.place_at(oid, version) {
            for s in p.servers() {
                counts[s.index()] += 1;
            }
        }
    }
    counts
}

/// Number of replicas whose server changes between two versions — the
/// migration volume a *full* (non-selective) re-integration would incur,
/// in replica units.
pub fn moved_replicas(
    view: &ClusterView,
    oids: &[ObjectId],
    from_version: VersionId,
    to_version: VersionId,
) -> u64 {
    oids.iter()
        .map(|&oid| {
            match (
                view.place_at(oid, from_version),
                view.place_at(oid, to_version),
            ) {
                (Ok(a), Ok(b)) => b.servers().iter().filter(|s| !a.contains(**s)).count() as u64,
                _ => 0,
            }
        })
        .sum()
}

/// Max/mean ratio of a per-server count vector (1.0 = perfectly even).
/// Servers with zero expected share are excluded by passing a mask.
pub fn imbalance(counts: &[u64]) -> f64 {
    let nonzero: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
    if nonzero.is_empty() {
        return 1.0;
    }
    let mean = nonzero.iter().sum::<u64>() as f64 / nonzero.len() as f64;
    let max = *nonzero.iter().max().expect("nonempty") as f64;
    max / mean
}

/// Chi-square-like divergence between an observed count vector and
/// expected fractions: `sum((obs_i - exp_i)^2 / exp_i)` over servers with
/// nonzero expectation, normalised by total count. Smaller is closer.
pub fn divergence_from_expected(counts: &[u64], expected_fractions: &[f64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut d = 0.0;
    for (&c, &f) in counts.iter().zip(expected_fractions) {
        if f <= 0.0 {
            continue;
        }
        let e = f * total as f64;
        let diff = c as f64 - e;
        d += diff * diff / e;
    }
    d / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use crate::placement::Strategy;

    fn oids(n: u64) -> Vec<ObjectId> {
        (0..n).map(ObjectId).collect()
    }

    #[test]
    fn distribution_counts_every_replica() {
        let view = ClusterView::new(Layout::equal_work(10, 10_000), Strategy::Primary, 2);
        let objs = oids(5_000);
        let d = replica_distribution(&view, &objs, VersionId(1));
        assert_eq!(d.iter().sum::<u64>(), 2 * 5_000);
    }

    #[test]
    fn equal_work_distribution_is_rank_skewed() {
        let view = ClusterView::new(Layout::equal_work(10, 40_000), Strategy::Primary, 2);
        let objs = oids(50_000);
        let d = replica_distribution(&view, &objs, VersionId(1));
        // Secondaries follow ~B/i: rank 3 stores more than rank 9.
        assert!(d[2] > d[8], "rank 3 {} !> rank 9 {}", d[2], d[8]);
        // Tail monotonicity (within sampling noise): compare rank 4 vs 10.
        assert!(d[3] > d[9]);
    }

    #[test]
    fn uniform_distribution_is_flat() {
        let view = ClusterView::new(Layout::uniform(10, 10_000), Strategy::Original, 2);
        let objs = oids(50_000);
        let d = replica_distribution(&view, &objs, VersionId(1));
        assert!(
            imbalance(&d) < 1.15,
            "uniform layout imbalance {}",
            imbalance(&d)
        );
    }

    #[test]
    fn moved_replicas_zero_for_same_version() {
        let view = ClusterView::new(Layout::equal_work(10, 10_000), Strategy::Primary, 2);
        let objs = oids(1_000);
        assert_eq!(moved_replicas(&view, &objs, VersionId(1), VersionId(1)), 0);
    }

    #[test]
    fn moved_replicas_detects_resize_disruption() {
        let mut view = ClusterView::new(Layout::equal_work(10, 10_000), Strategy::Primary, 2);
        view.resize(6);
        let objs = oids(2_000);
        let moved = moved_replicas(&view, &objs, VersionId(1), VersionId(2));
        assert!(moved > 0);
        // Far fewer than all replicas move.
        assert!(moved < 2 * 2_000);
    }

    #[test]
    fn imbalance_edge_cases() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
        assert!((imbalance(&[5, 5, 5]) - 1.0).abs() < 1e-12);
        assert!((imbalance(&[10, 5]) - (10.0 / 7.5)).abs() < 1e-12);
    }

    #[test]
    fn divergence_is_zero_for_exact_match() {
        let counts = [250u64, 250, 250, 250];
        let exp = [0.25f64; 4];
        assert!(divergence_from_expected(&counts, &exp) < 1e-12);
    }

    #[test]
    fn cache_counters_snapshot_and_ratio() {
        let c = CacheCounters::default();
        assert_eq!(c.snapshot(), CacheSnapshot::default());
        assert_eq!(c.snapshot().hit_ratio(), 0.0);
        c.inc_hit();
        c.inc_hit();
        c.inc_hit();
        c.inc_miss();
        c.inc_contention();
        c.add_epoch_evictions(2);
        c.add_epoch_evictions(0); // no-op
        let s = c.snapshot();
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
        assert_eq!(s.shard_contention, 1);
        assert_eq!(s.epoch_evictions, 2);
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn divergence_grows_with_skew() {
        let exp = [0.25f64; 4];
        let near = divergence_from_expected(&[260, 240, 255, 245], &exp);
        let far = divergence_from_expected(&[700, 100, 100, 100], &exp);
        assert!(far > near * 10.0);
    }
}
