//! Live-cluster integration: the full §IV data path (placement →
//! storage nodes → dirty table in the KV store → selective
//! re-integration) under realistic elastic scenarios.

use bytes::Bytes;
use ech_cluster::{Cluster, ClusterConfig};
use ech_core::ids::ObjectId;
use ech_core::placement::Strategy;
use std::sync::Arc;

fn payload(oid: u64) -> Bytes {
    // Deterministic, size-varied payloads so byte accounting is exercised.
    Bytes::from(vec![(oid % 251) as u8; 64 + (oid % 192) as usize])
}

fn write_range(c: &Arc<Cluster>, range: std::ops::Range<u64>) {
    for i in range {
        c.put(ObjectId(i), payload(i)).unwrap();
    }
}

fn assert_all_readable(c: &Arc<Cluster>, range: std::ops::Range<u64>) {
    for i in range {
        assert_eq!(c.get(ObjectId(i)).unwrap(), payload(i), "object {i}");
    }
}

#[test]
fn power_cycle_preserves_every_byte() {
    // Write at full power, cycle through aggressive resizes with writes
    // at every level, end at full power, re-integrate: every object must
    // be readable and fully placed, and the dirty table empty.
    let c = Cluster::new(ClusterConfig::paper());
    write_range(&c, 0..500);
    let mut next = 500u64;
    for &active in &[7usize, 4, 2, 5, 8, 3, 6, 10] {
        c.resize(active);
        write_range(&c, next..next + 200);
        assert_all_readable(&c, 0..next + 200);
        next += 200;
        // Opportunistic re-integration at every level, like the paper's
        // always-running component.
        c.reintegrate_all();
    }
    assert_eq!(c.dirty_len(), 0);
    assert_all_readable(&c, 0..next);
    for i in 0..next {
        assert!(c.is_fully_placed(ObjectId(i)), "object {i} misplaced");
    }
}

#[test]
fn equal_work_cluster_stores_more_on_high_ranks() {
    let c = Cluster::new(ClusterConfig::paper());
    write_range(&c, 0..5_000);
    let counts: Vec<usize> = c.nodes().iter().map(|n| n.object_count()).collect();
    // Primaries (ranks 1-2) carry a full copy: together half of all
    // replicas.
    let primary_total = counts[0] + counts[1];
    let all: usize = counts.iter().sum();
    assert_eq!(all, 10_000);
    assert!(
        (primary_total as f64 - 5_000.0).abs() < 300.0,
        "primaries hold {primary_total} of {all}"
    );
    // Tail decays: rank 3 > rank 10.
    assert!(counts[2] > counts[9]);
}

#[test]
fn minimal_power_cluster_still_serves_reads_and_writes() {
    let c = Cluster::new(ClusterConfig::paper());
    write_range(&c, 0..300);
    c.resize(2); // just the primaries
    assert_all_readable(&c, 0..300);
    // Writes still succeed (special case: primaries act as secondaries).
    write_range(&c, 300..350);
    assert_all_readable(&c, 300..350);
    assert!(c.dirty_len() >= 50);
}

#[test]
fn dirty_table_in_kvstore_matches_cluster_accounting() {
    let c = Cluster::new(ClusterConfig::paper());
    c.resize(6);
    write_range(&c, 0..120);
    // The dirty table lives in the shared kv store, as its typed log.
    assert_eq!(c.kv().dirty_len().unwrap(), 120);
    assert_eq!(c.dirty_len(), 120);
    c.resize(10);
    c.reintegrate_all();
    assert_eq!(c.kv().dirty_len().unwrap(), 0);
}

#[test]
fn original_strategy_moves_more_than_selective_on_size_up() {
    // The headline claim, on the live store: bytes moved by selective
    // re-integration are far fewer than what the original CH would
    // transfer ("over-migrates all the data").
    let elastic = Cluster::new(ClusterConfig::paper());
    write_range(&elastic, 0..2_000);
    elastic.resize(6);
    write_range(&elastic, 2_000..2_200);
    elastic.resize(10);
    elastic.reintegrate_all();
    let selective_bytes = elastic.migrated_bytes();

    // Original CH's assume-empty migration on the same history: every
    // replica whose placement lands on servers 7..10 gets copied.
    let mut cfg = ClusterConfig::paper();
    cfg.strategy = Strategy::Original;
    let orig = Cluster::new(cfg);
    write_range(&orig, 0..2_000);
    orig.resize(6);
    write_range(&orig, 2_000..2_200);
    orig.resize(10);
    let mut assume_empty_bytes = 0u64;
    for i in 0..2_200u64 {
        let p = orig.locate(ObjectId(i)).unwrap();
        for s in p.servers() {
            if s.index() >= 6 {
                assume_empty_bytes += payload(i).len() as u64;
            }
        }
    }
    assert!(
        selective_bytes * 4 < assume_empty_bytes,
        "selective moved {selective_bytes}, assume-empty would move {assume_empty_bytes}"
    );
}

#[test]
fn concurrent_clients_with_elastic_resizes_lose_nothing() {
    let c = Cluster::new(ClusterConfig::paper());
    let worker = c.start_background_worker(std::time::Duration::from_millis(1));
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let c = &c;
            s.spawn(move || {
                for i in 0..500u64 {
                    let oid = ObjectId(t * 10_000 + i);
                    c.put(oid, payload(oid.raw())).unwrap();
                    // Read-your-write.
                    assert_eq!(c.get(oid).unwrap(), payload(oid.raw()));
                }
            });
        }
        let c = &c;
        s.spawn(move || {
            for &k in &[8usize, 6, 4, 7, 9, 5, 10] {
                std::thread::sleep(std::time::Duration::from_millis(15));
                c.resize(k);
            }
        });
    });
    c.resize(10);
    let mut spins = 0;
    while c.dirty_len() > 0 && spins < 10_000 {
        std::thread::sleep(std::time::Duration::from_millis(1));
        spins += 1;
    }
    c.stop_background_worker();
    worker.join().unwrap();
    assert_eq!(c.dirty_len(), 0, "dirty table must drain at full power");
    for t in 0..8u64 {
        for i in 0..500u64 {
            let oid = ObjectId(t * 10_000 + i);
            assert_eq!(c.get(oid).unwrap(), payload(oid.raw()));
        }
    }
}
