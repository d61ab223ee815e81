//! A node's lock stripes keep its tallies exact under concurrent writers.
//!
//! Each stripe counts its own reads and writes, and the node-wide
//! `bytes_stored` moves by compare-exchange only when a write changes an
//! object's size. Two threads released together by a `Barrier` race on
//! one node; every figure the node reports must equal the one a
//! sequential recount of its contents gives.

use bytes::Bytes;
use ech_cluster::{NodeError, StorageNode};
use ech_core::ids::{ObjectId, ServerId, VersionId};
use std::sync::Barrier;

/// Ids both threads write; each thread also owns `OWN` ids of its own.
const SHARED: u64 = 64;
const OWN: u64 = 2_000;
const ROUNDS: u64 = 50;

fn payload(len: u64) -> Bytes {
    Bytes::from(vec![0xA5u8; len as usize])
}

/// Varying sizes, zero included, so most writes move `bytes_stored`.
fn len_for(oid: u64, round: u64, thread: u64) -> u64 {
    (oid.wrapping_mul(31) ^ round.wrapping_mul(17) ^ thread.wrapping_mul(7)) % 41
}

fn own_id(thread: u64, k: u64) -> ObjectId {
    ObjectId(1_000_000 * (thread + 1) + k)
}

/// (objects held, bytes held), recounted id by id.
fn recount(node: &StorageNode, ids: impl Iterator<Item = ObjectId>) -> (usize, u64) {
    ids.filter_map(|oid| node.get(oid).ok())
        .fold((0, 0), |(n, b), o| (n + 1, b + o.data.len() as u64))
}

fn every_id() -> impl Iterator<Item = ObjectId> {
    (0..SHARED)
        .map(ObjectId)
        .chain((0..2).flat_map(|t| (0..OWN).map(move |k| own_id(t, k))))
}

#[test]
fn two_writers_keep_counts_objects_and_bytes_exact() {
    let node = StorageNode::new(ServerId(0));
    let barrier = Barrier::new(2);
    let issued: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let (node, barrier) = (&node, &barrier);
                s.spawn(move || {
                    let (mut gets, mut puts) = (0u64, 0u64);
                    barrier.wait();
                    for round in 0..ROUNDS {
                        for k in 0..OWN {
                            let oid = own_id(t, k);
                            let shared = ObjectId(k % SHARED);
                            for target in [oid, shared] {
                                let len = len_for(target.raw(), round, t);
                                node.put(target, payload(len), VersionId(round + 1), false)
                                    .unwrap();
                                puts += 1;
                                let _ = node.get(target);
                                gets += 1;
                            }
                            // Every third step removes both ids again; the
                            // shared remove races the other thread's puts.
                            if (k + round) % 3 == 0 {
                                node.remove(oid);
                                node.remove(shared);
                            }
                        }
                    }
                    (gets, puts)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let gets: u64 = issued.iter().map(|&(g, _)| g).sum();
    let puts: u64 = issued.iter().map(|&(_, p)| p).sum();
    assert_eq!(node.op_counts(), (gets, puts));
    // The recount's own gets come after the snapshot above.
    let (objects, bytes) = recount(&node, every_id());
    assert_eq!(node.object_count(), objects);
    assert_eq!(node.bytes_stored(), bytes);
    assert!(objects > 0, "the workload leaves objects behind");
}

#[test]
fn capacity_holds_exactly_at_the_boundary_under_two_writers() {
    const CAPACITY: u64 = 100_000;
    const GROW: u64 = 7;
    const HOME: u64 = 10;
    let node = StorageNode::with_capacity(ServerId(0), CAPACITY);
    for t in 0..2 {
        node.put(own_id(t, 0), payload(HOME), VersionId(1), false)
            .unwrap();
    }
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (node, barrier) = (&node, &barrier);
            s.spawn(move || {
                barrier.wait();
                let mut k = 1;
                loop {
                    // An equal-size overwrite never moves the tally, so
                    // it is never refused, however full the disk is.
                    node.put(own_id(t, 0), payload(HOME), VersionId(k), false)
                        .unwrap();
                    match node.put(own_id(t, k), payload(GROW), VersionId(1), false) {
                        Ok(()) => {}
                        Err(NodeError::DiskFull { capacity, needed }) => {
                            assert_eq!(capacity, CAPACITY);
                            assert!(needed > CAPACITY);
                            break;
                        }
                        Err(e) => panic!("unexpected {e}"),
                    }
                    assert!(node.bytes_stored() <= CAPACITY);
                    k += 1;
                }
                // Full: one more equal-size overwrite still goes through.
                node.put(own_id(t, 0), payload(HOME), VersionId(k + 1), false)
                    .unwrap();
            });
        }
    });
    let ids = (0..2).flat_map(|t| (0..CAPACITY).map(move |k| own_id(t, k)));
    let (_, bytes) = recount(&node, ids);
    assert_eq!(node.bytes_stored(), bytes);
    // No refusal was spurious: the disk ended with less than one
    // growth's worth of room, and never went past its capacity.
    assert!(bytes <= CAPACITY && CAPACITY - bytes < GROW, "{bytes}");
}

#[test]
fn two_growing_writers_never_pass_capacity() {
    // Either object alone may grow to `BIG`, both together may not: every
    // grow races the other thread's for the same last bytes.
    const SMALL: u64 = 10;
    const BIG: u64 = 60;
    const CAPACITY: u64 = 2 * BIG - 1;
    let node = StorageNode::with_capacity(ServerId(0), CAPACITY);
    // Two objects on different stripes, so no stripe lock orders the
    // grows: only the tally's compare-exchange does.
    let first = ObjectId(0);
    let second = (1..)
        .map(ObjectId)
        .find(|&o| StorageNode::stripe_of(o) != StorageNode::stripe_of(first))
        .unwrap();
    for oid in [first, second] {
        node.put(oid, payload(SMALL), VersionId(1), false).unwrap();
    }
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for oid in [first, second] {
            let (node, barrier) = (&node, &barrier);
            s.spawn(move || {
                barrier.wait();
                for v in 1..=100_000 {
                    let held = match node.put(oid, payload(BIG), VersionId(v), false) {
                        Ok(()) => {
                            let stored = node.bytes_stored();
                            assert!(stored <= CAPACITY, "{stored} > {CAPACITY}");
                            BIG
                        }
                        Err(NodeError::DiskFull { .. }) => SMALL,
                        Err(e) => panic!("unexpected {e}"),
                    };
                    // Equal-size overwrites are never refused.
                    node.put(oid, payload(held), VersionId(v), false).unwrap();
                    node.put(oid, payload(SMALL), VersionId(v), false).unwrap();
                }
            });
        }
    });
    assert_eq!(node.bytes_stored(), 2 * SMALL);
}

#[test]
fn crash_during_removes_and_reads_leaves_nothing() {
    const PRELOAD: u64 = 16_384;
    let node = StorageNode::new(ServerId(0));
    for k in 0..PRELOAD {
        node.put(ObjectId(k), payload(1 + k % 40), VersionId(1), false)
            .unwrap();
    }
    let barrier = Barrier::new(2);
    let (removed, lost) = std::thread::scope(|s| {
        let traffic = s.spawn(|| {
            let mut removed = 0;
            for oid in (0..PRELOAD).map(ObjectId) {
                if oid.raw() == PRELOAD / 2 {
                    // Halfway: release the crash into the second half.
                    barrier.wait();
                }
                let _ = node.get(oid);
                node.restamp(oid, VersionId(2), false);
                removed += usize::from(node.remove(oid));
            }
            removed
        });
        barrier.wait();
        let lost = node.crash();
        (traffic.join().unwrap(), lost)
    });
    // Every object went exactly one way, and the removes that raced the
    // crash left no bytes behind in the tally.
    assert_eq!(removed + lost, PRELOAD as usize);
    assert_eq!(node.object_count(), 0);
    assert_eq!(node.bytes_stored(), 0);
}

#[test]
fn crash_during_writes_keeps_the_tally_exact() {
    let node = StorageNode::new(ServerId(0));
    let barrier = Barrier::new(3);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (node, barrier) = (&node, &barrier);
            s.spawn(move || {
                for k in 0.. {
                    if k == OWN {
                        // Release the crash into running traffic.
                        barrier.wait();
                    }
                    let oid = own_id(t, k % OWN);
                    match node.put(oid, payload(len_for(k, 0, t)), VersionId(1), false) {
                        Ok(()) => {}
                        Err(NodeError::PoweredOff) => break,
                        Err(e) => panic!("unexpected {e}"),
                    }
                    if k % 5 == 0 {
                        node.remove(own_id(t, (k / 2) % OWN));
                    }
                }
            });
        }
        barrier.wait();
        node.crash();
    });
    // A put that passed the power check before the crash can still land
    // after it (at most one per writer); whatever is left, the tally
    // matches it exactly.
    node.set_powered(true);
    let (objects, bytes) = recount(&node, every_id());
    assert!(objects <= 2, "{objects} objects outlived the crash");
    assert_eq!(node.object_count(), objects);
    assert_eq!(node.bytes_stored(), bytes);
    node.crash();
    assert_eq!((node.object_count(), node.bytes_stored()), (0, 0));
}
