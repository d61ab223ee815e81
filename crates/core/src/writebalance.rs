//! Write balance across the primary tier. Every object keeps exactly one
//! replica on a primary, so with `p` primaries and `r`-way replication
//! the primary tier takes `1/r` of all replica writes and each primary
//! `1/(r·p)` of them, whatever `p` a layout picks
//! ([`Layout::equal_work_with_primaries`](crate::layout::Layout::equal_work_with_primaries)).

#[cfg(test)]
mod tests {
    use crate::ids::ObjectId;
    use crate::layout::Layout;
    use crate::membership::MembershipTable;

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
