//! Walkthrough of Figure 6: membership versioning, dirty-data tracking
//! in the Redis-like store, and selective re-integration across versions
//! 9 → 10 → 11.
//!
//! Uses the real `ech-cluster` data path, so the dirty table you see is
//! the actual typed dirty log in `ech-kvstore` (its RPUSH / LRANGE / LPOP
//! verbs are `dirty_push` / `dirty_range` / `dirty_pop_n`).
//!
//! Run with: `cargo run -p ech-apps --example dirty_tracking_walkthrough`

use bytes::Bytes;
use ech_cluster::{Cluster, ClusterConfig};
use ech_core::ids::ObjectId;

fn main() {
    let cluster = Cluster::new(ClusterConfig::paper());

    // Burn through versions so the interesting ones land at 9/10/11 like
    // the figure (versions 2..=8: earlier resizes).
    for k in [9, 8, 7, 6, 9, 8, 7] {
        cluster.resize(k);
    }
    cluster.resize(5); // version 9: servers 1..5 active
    println!(
        "version {}: servers 1..5 active",
        cluster.current_version().raw()
    );

    // Figure 6's version-9 writes.
    for oid in [9u64, 103, 10010, 20400] {
        cluster
            .put(ObjectId(oid), Bytes::from(format!("data-{oid}")))
            .unwrap();
        let p = cluster.locate(ObjectId(oid)).unwrap();
        println!("  wrote oid {oid} -> {p} [dirty]");
    }
    println!("  dirty table length: {}", cluster.dirty_len());

    // Version 10: turn on 4 more servers; re-integration migrates dirty
    // objects toward the new layout but keeps the entries (not full
    // power yet).
    cluster.resize(9);
    println!(
        "\nversion {}: servers 1..9 active",
        cluster.current_version().raw()
    );
    let stats = cluster.reintegrate_all();
    println!(
        "  re-integration: {} tasks, {} moves, {} bytes",
        stats.tasks, stats.moves, stats.bytes
    );
    println!(
        "  dirty table length: {} (entries kept: not full power)",
        cluster.dirty_len()
    );

    // Version 11: full power; all dirty entries are re-integrated and
    // removed (LPOP).
    cluster.resize(10);
    println!(
        "\nversion {}: all 10 servers active",
        cluster.current_version().raw()
    );
    let stats = cluster.reintegrate_all();
    println!(
        "  re-integration: {} tasks, {} moves, {} bytes",
        stats.tasks, stats.moves, stats.bytes
    );
    println!("  dirty table length: {} (cleared)", cluster.dirty_len());

    // The data is intact and fully placed.
    for oid in [9u64, 103, 10010, 20400] {
        assert_eq!(
            cluster.get(ObjectId(oid)).unwrap(),
            Bytes::from(format!("data-{oid}"))
        );
        assert!(cluster.is_fully_placed(ObjectId(oid)));
    }
    println!("\nall objects intact and at their full-power homes");
}
