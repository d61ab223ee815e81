//! Cross-backend property tests: every [`EngineKind`] must uphold the
//! paper's placement guarantees, not just the ring.
//!
//! The adapter ([`place_primary_with`] / [`place_original_with`]) walks
//! whatever candidate stream the engine produces, so the invariants —
//! replication level, active-only distinct replicas, exactly one replica
//! on a primary, determinism, minimal disruption on a size-down — are
//! properties of the adapter-over-engine pair. These tests draw random
//! cluster shapes and run the whole backend matrix through each one.

use ech_core::placement::Strategy as PlacementStrategy;
use ech_core::prelude::*;
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

/// Strategy for a cluster shape: (n, B, r) with n >= r and B >= n.
fn cluster_shape() -> impl proptest::strategy::Strategy<Value = (usize, u32, usize)> {
    (4usize..48, 1usize..4).prop_flat_map(|(n, r_seed)| {
        let r = (r_seed % n.min(3)) + 1; // 1..=3, <= n
        let b = (n as u32 * 50)..(n as u32 * 400);
        (Just(n), b, Just(r))
    })
}

/// A view over `n` servers for every backend, same layout parameters.
fn views(n: usize, b: u32, r: usize) -> Vec<ClusterView> {
    EngineKind::ALL
        .iter()
        .map(|&kind| {
            ClusterView::with_engine(
                Layout::equal_work(n, b),
                PlacementStrategy::Primary,
                r,
                kind,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_backend_upholds_primary_invariants(
        (n, b, r) in cluster_shape(),
        oid in 0u64..1_000_000,
        active_frac in 0.3f64..1.0,
    ) {
        for mut view in views(n, b, r) {
            let p = view.layout().primary_count();
            let active = ((n as f64 * active_frac) as usize).clamp(r.max(1), n);
            if active < n {
                view.resize(active);
            }
            let placement = view.place_current(ObjectId(oid)).unwrap();

            // Replication level met; replicas distinct and active.
            prop_assert_eq!(placement.len(), r, "{:?}", view.engine());
            let mut servers = placement.servers().to_vec();
            servers.sort();
            servers.dedup();
            prop_assert_eq!(servers.len(), r, "{:?}", view.engine());
            for &s in placement.servers() {
                prop_assert!(view.current_membership().is_active(s), "{:?}", view.engine());
            }

            // Exactly one replica on a primary whenever enough
            // secondaries are active (Algorithm 1's write-offload
            // invariant), at least one otherwise.
            let active_secondaries = active.saturating_sub(p.min(active));
            let on_primary = placement.primary_replicas(view.layout()).count();
            if active_secondaries >= r - 1 {
                prop_assert_eq!(
                    on_primary, 1,
                    "{:?} n={} p={} r={} active={}", view.engine(), n, p, r, active
                );
            } else {
                prop_assert!(on_primary >= 1, "{:?}", view.engine());
            }
        }
    }

    #[test]
    fn every_backend_is_deterministic(
        (n, b, r) in cluster_shape(),
        oid_base in 0u64..1_000_000,
    ) {
        for (view, rebuilt) in views(n, b, r).into_iter().zip(views(n, b, r)) {
            for k in 0..32u64 {
                let oid = ObjectId(oid_base + k);
                let a = view.place_current(oid).unwrap();
                // Pure: repeated lookups agree.
                prop_assert_eq!(&a, &view.place_current(oid).unwrap(), "{:?}", view.engine());
                // A view built again from the same parameters places
                // identically (a coordinator restart must not remap).
                prop_assert_eq!(&a, &rebuilt.place_current(oid).unwrap(), "{:?}", view.engine());
            }
        }
    }

    #[test]
    fn size_down_only_moves_keys_that_lost_a_replica(
        (n, b, r) in cluster_shape(),
        oid_base in 0u64..1_000_000,
    ) {
        for mut view in views(n, b, r) {
            let p = view.layout().primary_count();
            // Keep the placement regime identical across the resize
            // (all primaries active, secondaries plentiful), so the only
            // thing that changes is individual servers' availability —
            // the minimal-disruption property then says a key moves iff
            // it held a replica on a deactivated server.
            let down = ((n * 4) / 5).max(p + r);
            if down >= n {
                // Too small to size down without changing the regime.
                continue;
            }
            let before_version = view.current_version();
            view.resize(down);
            for k in 0..64u64 {
                let oid = ObjectId(oid_base + k);
                let before = view.place_at(oid, before_version).unwrap();
                let after = view.place_current(oid).unwrap();
                let lost = before
                    .servers()
                    .iter()
                    .any(|&s| !view.current_membership().is_active(s));
                if lost {
                    prop_assert!(
                        after != before,
                        "{:?}: inactive replica must be offloaded",
                        view.engine()
                    );
                } else {
                    prop_assert_eq!(
                        &after, &before,
                        "{:?}: key with intact replicas must not move", view.engine()
                    );
                }
            }
        }
    }
}
