//! An acked write always has its primary replica (§III-B): the write
//! path refuses the ack when the slot Algorithm 1 filled with the
//! primary fails, wherever that slot sits in the placement — not only
//! when slot 0 fails.

use bytes::Bytes;
use ech_cluster::{Cluster, ClusterConfig};
use ech_core::ids::ObjectId;

/// r = 3 under the primary-plus-majority quorum, with server 0 (a
/// primary) powered off but still placed: every put whose primary is
/// server 0 is refused and leaves no copy on any node, and every acked
/// put holds its primary replica.
#[test]
fn acked_write_holds_its_primary_when_the_primary_is_unreachable() {
    let mut cfg = ClusterConfig::paper();
    cfg.replicas = 3;
    let c = Cluster::new(cfg);
    c.nodes()[0].set_powered(false);
    let view = c.view_snapshot();
    let (mut on_server_0, mut refused) = (0, 0);
    for i in 0..5_000 {
        let oid = ObjectId(i);
        let placed = view.place_current(oid).expect("placement at full power");
        let primaries: Vec<_> = placed.primary_replicas(view.layout()).collect();
        assert_eq!(primaries.len(), 1, "object {i}: one primary replica");
        on_server_0 += usize::from(primaries[0].index() == 0);
        match c.put(oid, Bytes::from("primary")) {
            Ok(_) => assert!(
                c.nodes()[primaries[0].index()].holds(oid),
                "object {i} acked without its primary {}",
                primaries[0]
            ),
            Err(_) => {
                refused += 1;
                assert!(
                    c.nodes().iter().all(|n| !n.holds(oid)),
                    "refused object {i} left a copy no header names"
                );
            }
        }
    }
    assert!(on_server_0 > 0, "server 0 is the primary of some objects");
    assert_eq!(
        refused, on_server_0,
        "exactly the puts whose primary is dark fail"
    );
}
