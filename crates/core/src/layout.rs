//! Equal-work data layout (§III-C) and node capacity configuration (§III-D).
//!
//! The elastic layout is realised entirely through virtual-node *weights*:
//!
//! * `p = ceil(n / e²)` servers are primaries, each with weight `B / p`
//!   (Equation 1);
//! * the secondary of rank `i` (for `i` in `p+1..=n`) has weight `B / i`
//!   (Equation 2).
//!
//! `B` is "an integer that is large enough for data distribution fairness"
//! — the paper's worked example uses `B = 1000` and notes real deployments
//! pick it much larger. With these weights, higher-ranked (lower `i`)
//! servers own more keyspace, which yields Rabbit's equal-work property:
//! any active prefix of the expansion chain can serve reads with every
//! member doing the same amount of work.

use crate::ids::ServerId;
use crate::placement::Strategy;
use crate::ring::HashRing;

/// Number of primary servers for an `n`-server cluster: `ceil(n / e²)`,
/// clamped to at least 1 (§III-C).
///
/// For the paper's 10-server example this yields 2.
pub fn primary_count(n: usize) -> usize {
    assert!(n > 0, "cluster must have at least one server");
    let e2 = std::f64::consts::E * std::f64::consts::E;
    ((n as f64 / e2).ceil() as usize).max(1)
}

/// How a cluster's virtual-node weights are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutKind {
    /// Original consistent hashing: every server gets the same weight.
    Uniform,
    /// Equal-work layout per Equations 1 and 2.
    EqualWork,
}

/// A concrete weight assignment for an `n`-server cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    kind: LayoutKind,
    /// Fairness base `B`.
    base: u32,
    /// Number of primary servers (ranks `1..=p`).
    primaries: usize,
    /// vnode count per server, index = `ServerId::index()`.
    weights: Vec<u32>,
}

impl Layout {
    /// Equal-work layout for `n` servers with fairness base `base` (`B`)
    /// and the paper's primary count `p = ceil(n/e²)`.
    ///
    /// # Panics
    /// Panics if `n == 0` or if `base` is too small to give every server at
    /// least one virtual node (`base < n`).
    pub fn equal_work(n: usize, base: u32) -> Self {
        Self::equal_work_with_primaries(n, base, primary_count(n))
    }

    /// Equal-work layout with an explicit primary count.
    ///
    /// SpringFS-style systems "dynamically change the number of primary
    /// servers to balance the write performance and elasticity" (§I):
    /// more primaries raise the write ceiling (each object still writes
    /// exactly one primary replica, so per-primary write load scales as
    /// `1/(r·p)`) at the cost of a higher minimum power state (`p`
    /// servers can never turn off). The paper's fixed choice is
    /// [`primary_count`]; this constructor lets the primary-count ablation
    /// and `ech layout --primaries` sweep other values.
    ///
    /// # Panics
    /// Panics if `p == 0`, `p > n`, or `base < n`.
    pub fn equal_work_with_primaries(n: usize, base: u32, p: usize) -> Self {
        assert!(n > 0, "cluster must have at least one server");
        assert!(
            (1..=n).contains(&p),
            "primary count {p} out of range 1..={n}"
        );
        assert!(
            base as usize >= n,
            "base B = {base} too small for {n} servers: rank n would get 0 vnodes"
        );
        let mut weights = Vec::with_capacity(n);
        for i in 1..=n {
            let w = if i <= p {
                base / p as u32
            } else {
                base / i as u32
            };
            weights.push(w.max(1));
        }
        Layout {
            kind: LayoutKind::EqualWork,
            base,
            primaries: p,
            weights,
        }
    }

    /// The layout `strategy` runs on: equal-work for the primary
    /// strategy, uniform for original consistent hashing.
    pub fn for_strategy(strategy: Strategy, n: usize, base: u32) -> Self {
        match strategy {
            Strategy::Primary => Self::equal_work(n, base),
            Strategy::Original => Self::uniform(n, base),
        }
    }

    /// Uniform layout: the original consistent hashing baseline. Each of
    /// the `n` servers gets `base / n` virtual nodes (at least 1).
    ///
    /// The primary count is still recorded so the same topology can be
    /// driven by either placement algorithm in comparisons.
    pub fn uniform(n: usize, base: u32) -> Self {
        assert!(n > 0, "cluster must have at least one server");
        let w = ((base as usize / n).max(1)) as u32;
        Layout {
            kind: LayoutKind::Uniform,
            base,
            primaries: primary_count(n),
            weights: vec![w; n],
        }
    }

    /// Which weight family this is.
    #[inline]
    pub fn kind(&self) -> LayoutKind {
        self.kind
    }

    /// Fairness base `B`.
    #[inline]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of servers.
    #[inline]
    pub fn server_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of primary servers `p`.
    #[inline]
    pub fn primary_count(&self) -> usize {
        self.primaries
    }

    /// True when `server` is a primary (rank `<= p`).
    #[inline]
    pub fn is_primary(&self, server: ServerId) -> bool {
        server.index() < self.primaries
    }

    /// vnode weight of `server`.
    #[inline]
    pub fn weight(&self, server: ServerId) -> u32 {
        self.weights[server.index()]
    }

    /// The full weight vector (index = server index).
    #[inline]
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// Build the hash ring realising this layout.
    pub fn build_ring(&self) -> HashRing {
        HashRing::build(&self.weights)
    }

    /// Expected fraction of (single-copy) data owned by each server:
    /// its weight over the total weight.
    pub fn expected_fractions(&self) -> Vec<f64> {
        let total: f64 = self.weights.iter().map(|&w| w as f64).sum();
        self.weights.iter().map(|&w| w as f64 / total).collect()
    }
}

/// Node capacity configuration (§III-D).
///
/// The skewed equal-work layout stores very different amounts of data per
/// server; provisioning identical disks would over-fill high ranks. The
/// paper's remedy is a *small set* of capacity tiers (their example:
/// 2 TB, 1.5 TB, 1 TB, 750 GB, 500 GB, 320 GB) with each tier assigned to a
/// group of neighbouring ranks.
#[derive(Debug, Clone)]
pub struct CapacityPlan {
    /// Capacity per server in bytes, index = server index.
    capacities: Vec<u64>,
    /// Tier (index into the tier list) per server.
    tiers: Vec<usize>,
    /// The tier sizes used, descending, in bytes.
    tier_sizes: Vec<u64>,
}

impl CapacityPlan {
    /// Assign each server the smallest tier that covers its ideal share of
    /// `total_data` bytes (plus `headroom`, e.g. 0.2 for 20 % slack).
    ///
    /// Because equal-work weights are non-increasing in rank, the resulting
    /// assignment is automatically contiguous: each tier covers a group of
    /// neighbouring-ranked servers, exactly as §III-D prescribes. Servers
    /// whose ideal share exceeds even the largest tier are given the
    /// largest tier (the plan then reports utilisation > 1 for them).
    ///
    /// # Panics
    /// Panics if `tier_sizes` is empty or not strictly descending.
    pub fn fit(layout: &Layout, tier_sizes: &[u64], total_data: u64, headroom: f64) -> Self {
        assert!(!tier_sizes.is_empty(), "need at least one capacity tier");
        assert!(
            tier_sizes.windows(2).all(|w| w[0] > w[1]),
            "tier sizes must be strictly descending"
        );
        let fractions = layout.expected_fractions();
        let mut capacities = Vec::with_capacity(fractions.len());
        let mut tiers = Vec::with_capacity(fractions.len());
        for &f in &fractions {
            let need = (f * total_data as f64 * (1.0 + headroom)).ceil() as u64;
            // Smallest tier that still covers `need`; tiers are descending,
            // so scan from the back (smallest first).
            let tier = tier_sizes.iter().rposition(|&t| t >= need).unwrap_or(0); // largest tier if nothing covers
            tiers.push(tier);
            capacities.push(tier_sizes[tier]);
        }
        CapacityPlan {
            capacities,
            tiers,
            tier_sizes: tier_sizes.to_vec(),
        }
    }

    /// Uniform plan: every server gets the same capacity (the original CH
    /// configuration, §III-D's implicit baseline).
    pub fn uniform(n: usize, capacity: u64) -> Self {
        CapacityPlan {
            capacities: vec![capacity; n],
            tiers: vec![0; n],
            tier_sizes: vec![capacity],
        }
    }

    /// Capacity of `server` in bytes.
    #[inline]
    pub fn capacity(&self, server: ServerId) -> u64 {
        self.capacities[server.index()]
    }

    /// Tier index assigned to `server` (0 = largest tier).
    #[inline]
    pub fn tier(&self, server: ServerId) -> usize {
        self.tiers[server.index()]
    }

    /// The tier sizes used (descending, bytes).
    #[inline]
    pub fn tier_sizes(&self) -> &[u64] {
        &self.tier_sizes
    }

    /// Total provisioned capacity in bytes.
    pub fn total_capacity(&self) -> u64 {
        self.capacities.iter().sum()
    }

    /// Per-server utilisation if `total_data` bytes are spread according
    /// to `layout`'s expected fractions.
    pub fn utilization(&self, layout: &Layout, total_data: u64) -> Vec<f64> {
        layout
            .expected_fractions()
            .iter()
            .zip(&self.capacities)
            .map(|(&f, &c)| f * total_data as f64 / c as f64)
            .collect()
    }

    /// True when each tier's servers form one contiguous rank range.
    pub fn is_rank_contiguous(&self) -> bool {
        // Non-decreasing tier index along ranks <=> contiguous groups,
        // given tiers are sized descending.
        self.tiers.windows(2).all(|w| w[0] <= w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    #[test]
    fn primary_count_matches_paper_example() {
        // 10-server cluster => ceil(10 / 7.389) = 2 primaries (§III-C).
        assert_eq!(primary_count(10), 2);
    }

    #[test]
    fn primary_count_edges() {
        assert_eq!(primary_count(1), 1);
        assert_eq!(primary_count(7), 1); // 7/7.389 < 1 -> ceil = 1
        assert_eq!(primary_count(8), 2); // 8/7.389 = 1.08 -> 2
        assert_eq!(primary_count(100), 14); // 100/7.389 = 13.53 -> 14
        assert_eq!(primary_count(1000), 136);
    }

    #[test]
    fn equal_work_weights_match_worked_example() {
        // §III-C: B = 1000, n = 10, p = 2: primaries get 500 vnodes each,
        // server 6 gets 1000/6 = 166 (integer division; the paper rounds
        // to 167 but uses the same B/i form).
        let l = Layout::equal_work(10, 1000);
        assert_eq!(l.primary_count(), 2);
        assert_eq!(l.weight(ServerId(0)), 500);
        assert_eq!(l.weight(ServerId(1)), 500);
        assert_eq!(l.weight(ServerId(2)), 1000 / 3);
        assert_eq!(l.weight(ServerId(5)), 1000 / 6);
        assert_eq!(l.weight(ServerId(9)), 100);
    }

    #[test]
    fn equal_work_weights_are_non_increasing_in_rank() {
        for n in [3usize, 10, 31, 100] {
            let l = Layout::equal_work(n, 10_000);
            let w = l.weights();
            for i in 1..n {
                assert!(w[i - 1] >= w[i], "n={n}: weight rose at rank {}", i + 1);
            }
        }
    }

    #[test]
    fn every_server_gets_at_least_one_vnode() {
        let l = Layout::equal_work(100, 100);
        assert!(l.weights().iter().all(|&w| w >= 1));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_base_panics() {
        Layout::equal_work(100, 50);
    }

    #[test]
    fn explicit_primary_count_layouts() {
        for p in 1..=5usize {
            let l = Layout::equal_work_with_primaries(10, 10_000, p);
            assert_eq!(l.primary_count(), p);
            for i in 0..p {
                assert_eq!(l.weight(ServerId(i as u32)), 10_000 / p as u32);
            }
            for i in p..10 {
                assert_eq!(l.weight(ServerId(i as u32)), 10_000 / (i as u32 + 1));
            }
        }
        // The default equals the paper formula.
        assert_eq!(
            Layout::equal_work(10, 10_000),
            Layout::equal_work_with_primaries(10, 10_000, 2)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_primaries_panics() {
        Layout::equal_work_with_primaries(10, 10_000, 0);
    }

    #[test]
    fn uniform_layout_is_flat() {
        let l = Layout::uniform(10, 1000);
        assert!(l.weights().iter().all(|&w| w == 100));
        assert_eq!(l.kind(), LayoutKind::Uniform);
    }

    #[test]
    fn expected_fractions_sum_to_one() {
        for l in [Layout::equal_work(10, 1000), Layout::uniform(10, 1000)] {
            let s: f64 = l.expected_fractions().iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn primaries_are_the_rank_prefix() {
        let l = Layout::equal_work(20, 10_000);
        let p = l.primary_count();
        for i in 0..20 {
            assert_eq!(l.is_primary(ServerId(i as u32)), i < p);
        }
    }

    #[test]
    fn ring_ownership_approximates_expected_fractions() {
        let l = Layout::equal_work(10, 20_000);
        let ring = l.build_ring();
        let own = ring.ownership_fractions();
        for (i, (o, e)) in own.iter().zip(l.expected_fractions()).enumerate() {
            assert!(
                (o - e).abs() < 0.03,
                "server {}: ring ownership {o:.4} vs expected {e:.4}",
                i + 1
            );
        }
    }

    #[test]
    fn capacity_plan_uses_paper_tiers_contiguously() {
        let tiers = [
            2000 * GB,
            1500 * GB,
            1000 * GB,
            750 * GB,
            500 * GB,
            320 * GB,
        ];
        let l = Layout::equal_work(10, 10_000);
        let plan = CapacityPlan::fit(&l, &tiers, 6000 * GB, 0.2);
        assert!(plan.is_rank_contiguous());
        // Highest rank needs the most capacity.
        assert!(plan.capacity(ServerId(0)) >= plan.capacity(ServerId(9)));
        // Everything fits under 100% utilisation at the planned load.
        for (i, u) in plan.utilization(&l, 6000 * GB).iter().enumerate() {
            assert!(*u <= 1.0, "server {} over-utilised: {u:.2}", i + 1);
        }
    }

    #[test]
    fn capacity_plan_overflow_reports_high_utilization() {
        // Plan for 1 TB of data but then store 40 TB: utilisation must
        // exceed 1 on the largest owner instead of silently fitting.
        let tiers = [2000 * GB, 320 * GB];
        let l = Layout::equal_work(10, 10_000);
        let plan = CapacityPlan::fit(&l, &tiers, 1000 * GB, 0.0);
        let u = plan.utilization(&l, 40_000 * GB);
        assert!(u[0] > 1.0);
    }

    #[test]
    fn uniform_capacity_plan() {
        let plan = CapacityPlan::uniform(10, 500 * GB);
        assert_eq!(plan.total_capacity(), 5000 * GB);
        assert!(plan.is_rank_contiguous());
    }
}
