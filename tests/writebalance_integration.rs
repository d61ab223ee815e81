//! Explicit primary counts: `ech layout --primaries` and the
//! primary-count ablation build equal-work layouts with a `p` other than
//! the paper's `ceil(n/e^2)`. Each such layout must keep the paper's
//! invariants — one replica per object on a primary, and a secondary tail
//! that still decays as `B/i`.

use ech_core::prelude::*;

#[test]
fn growing_p_preserves_the_one_primary_invariant() {
    for p in 2..=5usize {
        let layout = Layout::equal_work_with_primaries(10, 20_000, p);
        let ring = layout.build_ring();
        let m = MembershipTable::full_power(10);
        for k in 0..500u64 {
            let placement = place_primary(&ring, &layout, &m, ObjectId(k), 2).unwrap();
            assert_eq!(
                placement.primary_replicas(&layout).count(),
                1,
                "p={p} oid={k}"
            );
        }
    }
}

#[test]
fn each_p_keeps_equal_work_tail_shape() {
    // Whatever p is, the secondary tail still decays as B/i.
    for p in 2..=4usize {
        let layout = Layout::equal_work_with_primaries(12, 24_000, p);
        let w = layout.weights();
        for i in (p + 1)..12 {
            assert!(w[i - 1] >= w[i], "p={p}: tail rose at rank {}", i + 1);
        }
        assert_eq!(w[p], 24_000 / (p as u32 + 1));
    }
}
