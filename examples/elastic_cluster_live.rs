//! A live elastic cluster under concurrent load: client threads write
//! and read real object bytes while the cluster resizes underneath them
//! and a background worker re-integrates offloaded data.
//!
//! This demonstrates the full §IV data path — Algorithm 1 placement,
//! versioned membership, the Redis-like dirty table, and selective
//! re-integration — running multi-threaded in one process.
//!
//! Run with: `cargo run -p ech-apps --example elastic_cluster_live --release`

use bytes::Bytes;
use ech_cluster::{Cluster, ClusterConfig};
use ech_core::ids::ObjectId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

const WRITERS: u64 = 4;
/// Puts the controller waits for before each resize, so every membership
/// version takes writes however fast the writers run.
const PUTS_PER_STEP: u64 = 1_000;

fn payload(oid: u64) -> Bytes {
    Bytes::from(format!("payload-of-object-{oid}"))
}

fn oid_of(writer: u64, i: u64) -> ObjectId {
    ObjectId(writer << 32 | i)
}

fn main() {
    let cluster = Cluster::new(ClusterConfig::paper());
    let worker = cluster.start_background_worker(Duration::from_millis(1));
    // Objects each writer has stored: writer `t` owns `oid_of(t, 0..n)`.
    let progress: Vec<AtomicU64> = (0..WRITERS).map(|_| AtomicU64::new(0)).collect();
    let written = || {
        progress
            .iter()
            .map(|p| p.load(Ordering::Acquire))
            .sum::<u64>()
    };
    let resizing = AtomicBool::new(true);
    let read_ok = AtomicU64::new(0);
    let mut dirty_below_full = 0;

    std::thread::scope(|s| {
        // 4 writer threads and 2 reader threads, all running until the
        // controller has finished resizing.
        for (t, progress) in (0..WRITERS).zip(&progress) {
            let (cluster, resizing) = (&cluster, &resizing);
            s.spawn(move || {
                let mut i = 0;
                while resizing.load(Ordering::Acquire) {
                    let oid = oid_of(t, i);
                    cluster.put(oid, payload(oid.raw())).unwrap();
                    i += 1;
                    progress.store(i, Ordering::Release);
                }
            });
        }
        for _ in 0..2 {
            let (cluster, progress, resizing, read_ok) = (&cluster, &progress, &resizing, &read_ok);
            s.spawn(move || {
                let mut k = 0u64;
                while resizing.load(Ordering::Acquire) {
                    let t = k % WRITERS;
                    let stored = progress[t as usize].load(Ordering::Acquire);
                    if stored > 0 {
                        let oid = oid_of(t, k % stored);
                        if cluster.get(oid).is_ok() {
                            read_ok.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    k += 1;
                }
            });
        }
        // The resize controller: shrink and grow while I/O is running.
        let (cluster, written, resizing, dirty_below_full) =
            (&cluster, &written, &resizing, &mut dirty_below_full);
        s.spawn(move || {
            for &target in &[8usize, 5, 3, 6, 10, 7, 10] {
                let due = written() + PUTS_PER_STEP;
                while written() < due {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let v = cluster.resize(target);
                let dirty = cluster.dirty_len();
                if target < 10 {
                    *dirty_below_full = (*dirty_below_full).max(dirty);
                }
                println!(
                    "resized to {target} active servers (version {}), dirty entries: {dirty}",
                    v.raw()
                );
            }
            resizing.store(false, Ordering::Release);
        });
    });

    // Make sure we finish at full power, then drain re-integration.
    cluster.resize(10);
    let mut spins = 0;
    while cluster.dirty_len() > 0 && spins < 10_000 {
        std::thread::sleep(Duration::from_millis(1));
        spins += 1;
    }
    cluster.stop_background_worker();
    worker.join().unwrap();

    println!(
        "\nwrote {} objects, {} successful concurrent reads, {} bytes re-integrated",
        written(),
        read_ok.load(Ordering::Relaxed),
        cluster.migrated_bytes()
    );
    println!("dirty table length at exit: {}", cluster.dirty_len());
    assert!(
        dirty_below_full > 0,
        "no resize below full power saw a dirty entry"
    );
    assert!(cluster.migrated_bytes() > 0, "nothing was re-integrated");
    assert_eq!(
        cluster.dirty_len(),
        0,
        "dirty table must drain at full power"
    );

    // Verify integrity of every object.
    let mut fully_placed = 0u64;
    for (t, progress) in (0..WRITERS).zip(&progress) {
        for i in 0..progress.load(Ordering::Relaxed) {
            let oid = oid_of(t, i);
            assert_eq!(cluster.get(oid).unwrap(), payload(oid.raw()));
            if cluster.is_fully_placed(oid) {
                fully_placed += 1;
            }
        }
    }
    println!(
        "all {} objects intact; {fully_placed} at their full-power placement",
        written()
    );
    let per_node: Vec<usize> = cluster.nodes().iter().map(|n| n.object_count()).collect();
    println!("replicas per server (rank order): {per_node:?}");
}
