//! Degenerate-shape edge cases: the smallest clusters, extreme
//! replication factors, and boundary memberships that unit tests with
//! "nice" shapes never hit.

use ech_core::prelude::*;

#[test]
fn single_server_cluster_works() {
    let layout = Layout::equal_work(1, 100);
    assert_eq!(layout.primary_count(), 1);
    let view = ClusterView::new(layout, Strategy::Primary, 1);
    for k in 0..50u64 {
        let p = view.place_current(ObjectId(k)).unwrap();
        assert_eq!(p.servers(), &[ServerId(0)]);
    }
}

#[test]
fn replication_equal_to_cluster_size_uses_every_server() {
    // r = n forces all servers into the placement; the one-primary rule
    // must relax (every primary necessarily holds a copy).
    let n = 6usize;
    let layout = Layout::equal_work(n, 600);
    let ring = layout.build_ring();
    let m = MembershipTable::full_power(n);
    for k in 0..100u64 {
        let p = place_primary(&ring, &layout, &m, ObjectId(k), n).unwrap();
        let mut servers: Vec<_> = p.servers().to_vec();
        servers.sort();
        assert_eq!(
            servers,
            (0..n as u32).map(ServerId).collect::<Vec<_>>(),
            "r = n must use every server"
        );
    }
}

#[test]
fn two_server_cluster_with_two_replicas() {
    let layout = Layout::equal_work(2, 64);
    let ring = layout.build_ring();
    let m = MembershipTable::full_power(2);
    for k in 0..100u64 {
        let p = place_primary(&ring, &layout, &m, ObjectId(k), 2).unwrap();
        assert_eq!(p.len(), 2);
    }
}

#[test]
fn r1_places_on_a_primary_always() {
    // With a single replica, Algorithm 1's "last replica" rule forces it
    // onto a primary — the one copy must survive scale-down.
    let layout = Layout::equal_work(10, 10_000);
    let ring = layout.build_ring();
    let m = MembershipTable::full_power(10);
    for k in 0..500u64 {
        let p = place_primary(&ring, &layout, &m, ObjectId(k), 1).unwrap();
        assert_eq!(p.len(), 1);
        assert!(
            layout.is_primary(p.servers()[0]),
            "oid {k}: single replica must sit on a primary, got {}",
            p.servers()[0]
        );
    }
}

#[test]
fn exactly_r_active_servers_still_places() {
    let layout = Layout::equal_work(10, 10_000);
    let ring = layout.build_ring();
    let m = MembershipTable::active_prefix(10, 3);
    for k in 0..200u64 {
        let p = place_primary(&ring, &layout, &m, ObjectId(k), 3).unwrap();
        let mut s: Vec<_> = p.servers().to_vec();
        s.sort();
        s.dedup();
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|x| x.index() < 3));
    }
}

#[test]
fn huge_version_history_stays_correct() {
    let mut view = ClusterView::new(Layout::equal_work(8, 800), Strategy::Primary, 2);
    for i in 0..5_000usize {
        view.resize((i % 7) + 2);
    }
    assert_eq!(view.current_version().raw(), 5_001);
    // Early and late versions both resolve.
    let early = view.place_at(ObjectId(7), VersionId(2)).unwrap();
    let late = view.place_at(ObjectId(7), VersionId(5_001)).unwrap();
    assert_eq!(early.len(), 2);
    assert_eq!(late.len(), 2);
    // Same active count => identical placement, regardless of when.
    let a2 = view.history().active_count(VersionId(2));
    for v in (3..5_000u64).rev() {
        if view.history().active_count(VersionId(v)) == a2 {
            assert_eq!(view.place_at(ObjectId(7), VersionId(v)).unwrap(), early);
            break;
        }
    }
}

#[test]
fn reintegration_with_single_entry_table() {
    let mut view = ClusterView::new(Layout::equal_work(4, 400), Strategy::Primary, 2);
    view.resize(2);
    let mut dirty = InMemoryDirtyTable::new();
    dirty.push_back(DirtyEntry::new(ObjectId(0), view.current_version()));
    view.resize(4);
    let mut engine = Reintegrator::new();
    let tasks = engine.drain(&view, &mut dirty, &NoHeaders);
    assert!(dirty.is_empty());
    assert!(tasks.len() <= 1);
}

#[test]
fn minimal_base_layout_is_usable() {
    // B == n gives every server exactly one vnode — coarse but valid.
    let layout = Layout::equal_work(10, 10);
    let ring = layout.build_ring();
    assert!(ring.len() >= 10);
    let m = MembershipTable::full_power(10);
    for k in 0..100u64 {
        let p = place_primary(&ring, &layout, &m, ObjectId(k), 2).unwrap();
        assert_eq!(p.primary_replicas(&layout).count(), 1);
    }
}

#[test]
fn capacity_plan_single_tier() {
    let layout = Layout::equal_work(5, 500);
    let plan = CapacityPlan::fit(&layout, &[1 << 40], 1 << 38, 0.1);
    assert!(plan.is_rank_contiguous());
    assert_eq!(plan.total_capacity(), 5 * (1u64 << 40));
}

#[test]
fn token_bucket_zero_rate_never_refills() {
    let mut b = TokenBucket::new(0.0, 10.0);
    assert_eq!(b.consume_up_to(10.0), 10.0);
    b.refill(1e6);
    assert_eq!(b.consume_up_to(0.1), 0.0);
}
