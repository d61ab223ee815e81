//! Dynamic primary-count selection (SpringFS-style write balancing).
//!
//! §I: "since the small number of primary servers limits the write
//! performance, several recent studies propose to dynamically change the
//! number of primary servers to balance the write performance and
//! elasticity." The trade is sharp under Algorithm 1: every object writes
//! **exactly one** replica into the primary set, so the primary tier must
//! absorb `1/r` of all write traffic no matter how small it is — `p`
//! bounds the write ceiling at `p × per-primary-rate × r`, while the
//! power floor is `p` servers.
//!
//! [`WriteBalancer`] picks `p` from observed write load with hysteresis;
//! [`relayout_fraction`] estimates the data-movement bill a `p` change
//! incurs (the equal-work weights shift, so keyspace ownership shifts).

use crate::layout::{primary_count, Layout};
use serde::{Deserialize, Serialize};

/// Hysteretic policy choosing the primary count from write demand.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WriteBalancer {
    /// Write bytes/s one primary server can absorb.
    per_primary_rate: f64,
    /// Replication factor `r` (primaries take `1/r` of client write bytes).
    replicas: usize,
    /// Lower bound: the paper's `ceil(n/e²)` (never fewer — the layout's
    /// power-proportionality optimum).
    p_min: usize,
    /// Upper bound (beyond `n/2` the layout degenerates).
    p_max: usize,
    /// Current choice.
    current: usize,
    /// Consecutive observations agreeing on a smaller `p`.
    shrink_votes: usize,
    /// Votes required before shrinking (growing is immediate).
    shrink_delay: usize,
}

impl WriteBalancer {
    /// Balancer for an `n`-server cluster with `r`-way replication.
    ///
    /// # Panics
    /// Panics if `per_primary_rate <= 0` or `r == 0` or `n == 0`.
    pub fn new(n: usize, replicas: usize, per_primary_rate: f64, shrink_delay: usize) -> Self {
        assert!(
            n > 0 && replicas > 0,
            "cluster and replication must be nonzero"
        );
        assert!(
            per_primary_rate > 0.0,
            "primary write rate must be positive"
        );
        let p_min = primary_count(n);
        WriteBalancer {
            per_primary_rate,
            replicas,
            p_min,
            p_max: (n / 2).max(p_min),
            current: p_min,
            shrink_votes: 0,
            shrink_delay,
        }
    }

    /// The primary count needed to absorb `write_load` client write
    /// bytes/s: the primary tier receives `write_load / r` of it (one of
    /// the `r` replicas per object).
    fn required_primaries(&self, write_load: f64) -> usize {
        assert!(write_load >= 0.0);
        let primary_bytes = write_load / self.replicas as f64;
        let need = (primary_bytes / self.per_primary_rate).ceil() as usize;
        need.clamp(self.p_min, self.p_max)
    }

    /// Observe one interval's write load; returns `Some(new_p)` when the
    /// balancer decides to change the primary count. Growth is immediate
    /// (writes are bottlenecked *now*); shrinking waits for
    /// `shrink_delay` consecutive agreeing observations because each
    /// change costs a re-layout migration.
    pub fn observe(&mut self, write_load: f64) -> Option<usize> {
        let want = self.required_primaries(write_load);
        if want > self.current {
            self.current = want;
            self.shrink_votes = 0;
            Some(self.current)
        } else if want < self.current {
            self.shrink_votes += 1;
            if self.shrink_votes >= self.shrink_delay {
                self.current = want;
                self.shrink_votes = 0;
                Some(self.current)
            } else {
                None
            }
        } else {
            self.shrink_votes = 0;
            None
        }
    }

    /// The current primary count.
    pub fn current(&self) -> usize {
        self.current
    }

    /// The lower bound (the paper's formula).
    pub fn p_min(&self) -> usize {
        self.p_min
    }
}

/// Fraction of single-copy data that must move when the primary count
/// changes from `p_from` to `p_to` (equal-work weights, same `n` and
/// `B`): half the L1 distance between the two ownership distributions.
///
/// This is the analytic data-movement estimate a controller should weigh
/// against the write-throughput gain before changing `p`.
pub fn relayout_fraction(n: usize, base: u32, p_from: usize, p_to: usize) -> f64 {
    let from = Layout::equal_work_with_primaries(n, base, p_from).expected_fractions();
    let to = Layout::equal_work_with_primaries(n, base, p_to).expected_fractions();
    from.iter()
        .zip(&to)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::object_position;
    use crate::ids::ObjectId;
    use crate::membership::MembershipTable;
    use crate::placement::place_original;

    fn balancer() -> WriteBalancer {
        // 10 servers, r=2, each primary absorbs 30 MB/s of primary-copy
        // writes.
        WriteBalancer::new(10, 2, 30.0e6, 3)
    }

    #[test]
    fn required_primaries_scales_with_write_load() {
        let b = balancer();
        // 60 MB/s client writes -> 30 MB/s primary-copy -> 1 primary,
        // clamped up to p_min = 2.
        assert_eq!(b.required_primaries(60.0e6), 2);
        // 240 MB/s -> 120 MB/s primary-copy -> 4 primaries.
        assert_eq!(b.required_primaries(240.0e6), 4);
        // Huge load clamps at n/2.
        assert_eq!(b.required_primaries(10.0e9), 5);
        assert_eq!(b.required_primaries(0.0), 2);
    }

    #[test]
    fn growth_is_immediate_shrink_is_delayed() {
        let mut b = balancer();
        assert_eq!(b.observe(300.0e6), Some(5));
        // Load drops; two quiet observations are not enough.
        assert_eq!(b.observe(10.0e6), None);
        assert_eq!(b.observe(10.0e6), None);
        assert_eq!(b.observe(10.0e6), Some(2));
        assert_eq!(b.current(), 2);
    }

    #[test]
    fn a_spike_resets_shrink_votes() {
        let mut b = balancer();
        b.observe(300.0e6);
        b.observe(10.0e6);
        b.observe(10.0e6);
        // Spike: votes reset.
        assert_eq!(b.observe(310.0e6), None); // want == current (5)
        assert_eq!(b.observe(10.0e6), None);
        assert_eq!(b.observe(10.0e6), None);
        assert_eq!(b.observe(10.0e6), Some(2));
    }

    #[test]
    fn relayout_fraction_properties() {
        assert_eq!(relayout_fraction(10, 10_000, 2, 2), 0.0);
        let small = relayout_fraction(10, 10_000, 2, 3);
        let large = relayout_fraction(10, 10_000, 2, 5);
        assert!(small > 0.0);
        assert!(large > small, "bigger p jump moves more data");
        // Symmetric.
        let back = relayout_fraction(10, 10_000, 5, 2);
        assert!((large - back).abs() < 1e-12);
        // Never more than everything.
        assert!(large <= 1.0);
    }

    #[test]
    fn relayout_estimate_matches_empirical_movement() {
        // First-copy placement movement between the two rings should be
        // in the same ballpark as the analytic ownership shift.
        let n = 10;
        let base = 40_000;
        let (pa, pb) = (2usize, 5usize);
        let ra = Layout::equal_work_with_primaries(n, base, pa).build_ring();
        let rb = Layout::equal_work_with_primaries(n, base, pb).build_ring();
        let m = MembershipTable::full_power(n);
        let keys = 20_000u64;
        let mut moved = 0u64;
        for k in 0..keys {
            let _ = object_position(ObjectId(k));
            let a = place_original(&ra, &m, ObjectId(k), 1).unwrap();
            let b = place_original(&rb, &m, ObjectId(k), 1).unwrap();
            if a != b {
                moved += 1;
            }
        }
        let empirical = moved as f64 / keys as f64;
        let analytic = relayout_fraction(n, base, pa, pb);
        assert!(
            (empirical - analytic).abs() < 0.1,
            "empirical {empirical:.3} vs analytic {analytic:.3}"
        );
    }

    #[test]
    fn write_ceiling_math_holds_in_placement() {
        // With p primaries and r = 2, the primary tier receives exactly
        // half the replicas regardless of p: verify at p = 4.
        let layout = Layout::equal_work_with_primaries(10, 40_000, 4);
        let ring = layout.build_ring();
        let m = MembershipTable::full_power(10);
        let mut on_primary = 0u64;
        let total = 10_000u64;
        for k in 0..total {
            let pl = crate::placement::place_primary(&ring, &layout, &m, ObjectId(k), 2).unwrap();
            on_primary += pl.primary_replicas(&layout).count() as u64;
        }
        assert_eq!(on_primary, total, "exactly one primary replica each");
    }
}
