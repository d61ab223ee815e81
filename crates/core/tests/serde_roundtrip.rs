//! Serde round-trips for the persistent core types.
//!
//! Membership histories, layouts and rings are the state a coordinator
//! must persist to survive restarts (Sheepdog stores epochs on disk), so
//! serialisation must be lossless and behaviour-preserving: a
//! deserialised view must place every object identically.

use ech_core::prelude::*;

fn roundtrip<T: serde::Serialize + for<'de> serde::Deserialize<'de>>(v: &T) -> T {
    let json = serde_json::to_string(v).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn ids_roundtrip() {
    assert_eq!(roundtrip(&ObjectId(10010)), ObjectId(10010));
    assert_eq!(roundtrip(&ServerId(7)), ServerId(7));
    assert_eq!(roundtrip(&VersionId(42)), VersionId(42));
    assert_eq!(roundtrip(&Rank(3)), Rank(3));
}

#[test]
fn layout_roundtrip_preserves_weights_and_roles() {
    for layout in [Layout::equal_work(17, 10_000), Layout::uniform(17, 10_000)] {
        let back = roundtrip(&layout);
        assert_eq!(back, layout);
        assert_eq!(back.primary_count(), layout.primary_count());
        assert_eq!(back.weights(), layout.weights());
    }
}

#[test]
fn ring_roundtrip_preserves_placement() {
    let layout = Layout::equal_work(12, 6_000);
    let ring = layout.build_ring();
    let back: HashRing = roundtrip(&ring);
    let m = MembershipTable::full_power(12);
    for k in 0..500u64 {
        assert_eq!(
            place_primary(&ring, &layout, &m, ObjectId(k), 3).unwrap(),
            place_primary(&back, &layout, &m, ObjectId(k), 3).unwrap()
        );
    }
}

#[test]
fn membership_history_roundtrip() {
    let mut h = MembershipHistory::new(MembershipTable::full_power(10));
    h.record(MembershipTable::active_prefix(10, 6));
    h.record(MembershipTable::active_prefix(10, 9));
    let back: MembershipHistory = roundtrip(&h);
    assert_eq!(back.current_version(), h.current_version());
    for v in 1..=3u64 {
        assert_eq!(
            back.active_count(VersionId(v)),
            h.active_count(VersionId(v))
        );
    }
}

#[test]
fn cluster_view_roundtrip_preserves_every_placement() {
    let mut view = ClusterView::new(Layout::equal_work(10, 10_000), Strategy::Primary, 2);
    view.resize(5);
    view.resize(8);
    view.resize(5);
    let back: ClusterView = roundtrip(&view);
    // The shared (`Arc`) topology serialises as the plain value: the
    // round-tripped view renders the same JSON, byte for byte.
    assert_eq!(
        serde_json::to_string(&back).expect("serialize"),
        serde_json::to_string(&view).expect("serialize")
    );
    assert_eq!(back.current_version(), VersionId(4));
    for k in 0..300u64 {
        for v in 1..=4u64 {
            assert_eq!(
                back.place_at(ObjectId(k), VersionId(v)).unwrap(),
                view.place_at(ObjectId(k), VersionId(v)).unwrap()
            );
        }
    }
}

#[test]
fn dirty_table_roundtrip() {
    let mut t = InMemoryDirtyTable::new();
    for k in 0..20u64 {
        t.push_back(DirtyEntry::new(ObjectId(k), VersionId(1 + k % 3)));
    }
    let mut back: InMemoryDirtyTable = roundtrip(&t);
    assert_eq!(back.len(), 20);
    assert_eq!(back.pop_front(), t.pop_front());
    assert_eq!(back.get(5), t.get(5));
}

#[test]
fn reintegrator_state_roundtrip() {
    // The engine's cursor/Last_Ver survive a restart: resuming after a
    // crash re-plans from where it stopped (or restarts on a new version,
    // which is the algorithm's own rule).
    let mut view = ClusterView::new(Layout::equal_work(10, 10_000), Strategy::Primary, 2);
    let mut dirty = InMemoryDirtyTable::new();
    view.resize(5);
    let ver = view.current_version();
    for k in 0..50u64 {
        dirty.push_back(DirtyEntry::new(ObjectId(k), ver));
    }
    view.resize(8);
    let mut engine = Reintegrator::new();
    let _ = engine.next_task(&view, &mut dirty, &NoHeaders);
    let _ = engine.next_task(&view, &mut dirty, &NoHeaders);

    let mut resumed: Reintegrator = roundtrip(&engine);
    // Both produce the same next task from the same table state.
    let mut dirty2 = dirty.clone();
    let a = engine.next_task(&view, &mut dirty, &NoHeaders);
    let b = resumed.next_task(&view, &mut dirty2, &NoHeaders);
    assert_eq!(a.is_ok(), b.is_ok());
    if let (Ok(a), Ok(b)) = (a, b) {
        assert_eq!(a.oid, b.oid);
        assert_eq!(a.moves, b.moves);
    }
}

#[test]
fn token_bucket_roundtrip() {
    let mut b = TokenBucket::new(100.0, 50.0);
    b.refill(0.1);
    let _ = b.consume_up_to(30.0);
    let back: TokenBucket = roundtrip(&b);
    assert_eq!(back.available(), b.available());
    assert_eq!(back.rate(), b.rate());
}

#[test]
fn placement_roundtrip() {
    let layout = Layout::equal_work(10, 10_000);
    let view = ClusterView::new(layout, Strategy::Primary, 3);
    let p = view.place_current(ObjectId(5)).unwrap();
    let back: Placement = roundtrip(&p);
    assert_eq!(back, p);
    assert_eq!(back.servers(), p.servers());
}

/// The JSON and `Debug` forms recorded from the `servers: Vec<ServerId>`
/// representation: inline storage (r = 1, 2, 3) and the heap spill above
/// it (r = 7, 10) must both keep them.
#[test]
fn placement_wire_form_does_not_depend_on_its_storage() {
    let recorded = [
        (1, r#"{"servers":[0]}"#),
        (2, r#"{"servers":[0,8]}"#),
        (3, r#"{"servers":[0,8,2]}"#),
        (7, r#"{"servers":[0,8,2,5,3,4,9]}"#),
        (10, r#"{"servers":[0,1,8,2,5,3,4,9,6,7]}"#),
    ];
    for (replicas, json) in recorded {
        let view = ClusterView::new(Layout::equal_work(10, 10_000), Strategy::Primary, replicas);
        let p = view.place_current(ObjectId(10010)).unwrap();
        assert_eq!(p.len(), replicas);
        assert_eq!(serde_json::to_string(&p).unwrap(), json);
        let back: Placement = serde_json::from_str(json).unwrap();
        assert_eq!(back, p, "r = {replicas}");
        let ids: Vec<String> = p.servers().iter().map(|s| format!("{s:?}")).collect();
        assert_eq!(
            format!("{p:?}"),
            format!("Placement {{ servers: [{}] }}", ids.join(", "))
        );
        // A read's candidate list: the current servers, then the unseen
        // ones of another placement, spilling to the heap when it must.
        let other = view.place_current(ObjectId(7)).unwrap();
        let merged = p.then_unseen(&other);
        let mut want = p.servers().to_vec();
        want.extend(other.servers().iter().filter(|s| !p.contains(**s)));
        assert_eq!(merged.servers(), want);
    }
}
