use super::*;

fn payload(oid: u64) -> Bytes {
    Bytes::from(format!("object-{oid}-payload"))
}

fn cluster() -> Arc<Cluster> {
    Cluster::new(ClusterConfig::paper())
}

#[test]
fn put_replicates_r_ways() {
    let c = cluster();
    let p = c.put(ObjectId(7), payload(7)).unwrap();
    assert_eq!(p.len(), 2);
    let holders = c.nodes().iter().filter(|n| n.holds(ObjectId(7))).count();
    assert_eq!(holders, 2);
    assert_eq!(c.get(ObjectId(7)).unwrap(), payload(7));
}

#[test]
fn data_available_with_only_primaries_active() {
    let c = cluster();
    for i in 0..200u64 {
        c.put(ObjectId(i), payload(i)).unwrap();
    }
    // Scale down to the 2 primaries — no cleanup, no re-replication.
    c.resize(2);
    for i in 0..200u64 {
        assert_eq!(
            c.get(ObjectId(i)).unwrap(),
            payload(i),
            "object {i} lost at minimal power"
        );
    }
}

#[test]
fn writes_at_partial_power_are_dirty_and_offloaded() {
    let c = cluster();
    c.resize(5);
    for i in 0..50u64 {
        let p = c.put(ObjectId(i), payload(i)).unwrap();
        for s in p.servers() {
            assert!(s.index() < 5, "placed on inactive server {s}");
        }
    }
    assert_eq!(c.dirty_len(), 50);
    // Readable immediately.
    for i in 0..50u64 {
        assert_eq!(c.get(ObjectId(i)).unwrap(), payload(i));
    }
}

#[test]
fn full_power_writes_are_clean() {
    let c = cluster();
    c.put(ObjectId(1), payload(1)).unwrap();
    assert_eq!(c.dirty_len(), 0);
}

#[test]
fn reintegration_moves_offloaded_data_home() {
    let c = cluster();
    c.resize(5);
    for i in 0..100u64 {
        c.put(ObjectId(i), payload(i)).unwrap();
    }
    c.resize(10);
    let stats = c.reintegrate_all();
    assert!(stats.tasks > 0, "some objects must have been offloaded");
    assert_eq!(c.dirty_len(), 0, "full power clears the dirty table");
    for i in 0..100u64 {
        assert!(
            c.is_fully_placed(ObjectId(i)),
            "object {i} not at its full-power home"
        );
        assert_eq!(c.get(ObjectId(i)).unwrap(), payload(i));
    }
    assert!(c.migrated_bytes() > 0);
}

/// `migration_rate` paces the drain on the cluster clock: the same
/// offloaded bytes move either way, for free when unthrottled and at no
/// more than the rate (past the one-second burst) when throttled.
#[test]
fn migration_rate_paces_the_drain_on_the_clock() {
    use crate::fault::{FaultPlan, VirtualClock};
    let drain = |rate: Option<f64>| {
        let mut cfg = ClusterConfig::paper();
        cfg.migration_rate = rate;
        let clock = Arc::new(VirtualClock::new());
        let c = Cluster::with_faults(cfg, FaultPlan::default(), clock.clone());
        c.resize(5);
        for i in 0..400u64 {
            c.put(ObjectId(i), Bytes::from(vec![i as u8; 1_000]))
                .unwrap();
        }
        c.resize(10);
        let before = clock.now();
        c.reintegrate_all();
        assert_eq!(c.dirty_len(), 0);
        (c.migrated_bytes(), before, clock.now())
    };
    let (free_bytes, _, free_end) = drain(None);
    assert!(free_bytes > 0, "some objects must have been offloaded");
    assert_eq!(free_end, Duration::ZERO, "an unthrottled drain never waits");
    let rate = 20_000.0;
    let (paced_bytes, before, after) = drain(Some(rate));
    assert_eq!(paced_bytes, free_bytes);
    let paced_elapsed = after - before;
    let floor = (paced_bytes as f64 - rate) / rate;
    assert!(
        paced_elapsed.as_secs_f64() >= floor,
        "{paced_bytes} B drained in {paced_elapsed:?}, under the {floor} s the rate allows"
    );
}

#[test]
fn partial_size_up_keeps_dirty_entries() {
    let c = cluster();
    c.resize(4);
    for i in 0..60u64 {
        c.put(ObjectId(i), payload(i)).unwrap();
    }
    c.resize(7);
    let stats = c.reintegrate_all();
    // Data moved toward v3 placement but entries survive for the
    // eventual full-power pass.
    assert_eq!(c.dirty_len(), 60);
    assert!(stats.tasks > 0);
    // All data still correct.
    for i in 0..60u64 {
        assert_eq!(c.get(ObjectId(i)).unwrap(), payload(i));
    }
}

#[test]
fn reads_fall_back_to_write_version_placement() {
    let c = cluster();
    c.resize(3);
    c.put(ObjectId(42), payload(42)).unwrap();
    // Size up WITHOUT re-integrating: current placement may name
    // servers that do not hold the object yet.
    c.resize(10);
    assert_eq!(c.get(ObjectId(42)).unwrap(), payload(42));
}

fn overwrite(oid: u64) -> Bytes {
    Bytes::from(format!("overwrite-{oid}"))
}

/// 64 objects written at full power (v1), the even half overwritten
/// after `resize(5)` (offloaded, header v2), then `resize(10)` (v3,
/// content-equal to v1) with nothing drained.
fn overwritten_while_small(placement: EngineKind) -> Arc<Cluster> {
    let c = Cluster::new(ClusterConfig {
        placement,
        ..ClusterConfig::paper()
    });
    for k in 0..64u64 {
        c.put(ObjectId(k), payload(k)).unwrap();
    }
    c.resize(5);
    for k in (0..64u64).step_by(2) {
        c.put(ObjectId(k), overwrite(k)).unwrap();
    }
    assert_eq!(c.resize(10), VersionId(3));
    c
}

#[test]
fn undrained_overwrite_is_found_through_its_header_version() {
    for engine in [EngineKind::Ring, EngineKind::Jump] {
        let c = overwritten_while_small(engine);
        // The current placement equals v1's and still holds the
        // stale full-power copies; only the header-version walk (or
        // the sweep) leads to the overwrite.
        for k in 0..64u64 {
            let want = if k % 2 == 0 { overwrite(k) } else { payload(k) };
            assert_eq!(c.get(ObjectId(k)).unwrap(), want, "{engine} oid {k}");
        }
    }
}

#[test]
fn one_walk_one_read_when_the_header_names_an_equal_membership() {
    for engine in [EngineKind::Ring, EngineKind::Jump] {
        let c = overwritten_while_small(engine);
        // v4 has the content of v2, the version the overwrites'
        // headers name: the current placement is where they sit.
        assert_eq!(c.resize(5), VersionId(4));
        let reads = || c.nodes().iter().map(|n| n.op_counts().0).sum::<u64>();
        for k in (0..64u64).step_by(2) {
            let before = reads();
            assert_eq!(c.get(ObjectId(k)).unwrap(), overwrite(k));
            assert_eq!(reads() - before, 1, "{engine} oid {k}");
        }
        for k in (1..64u64).step_by(2) {
            assert_eq!(c.get(ObjectId(k)).unwrap(), payload(k), "{engine} oid {k}");
        }
    }
}

#[test]
fn rewrite_at_newer_version_wins() {
    let c = cluster();
    c.resize(5);
    c.put(ObjectId(9), Bytes::from("old")).unwrap();
    c.resize(6);
    c.put(ObjectId(9), Bytes::from("new")).unwrap();
    c.resize(10);
    c.reintegrate_all();
    assert_eq!(c.get(ObjectId(9)).unwrap(), Bytes::from("new"));
}

#[test]
fn reintegrate_batch_plans_each_object_once() {
    let c = cluster();
    let partial = c.resize(6);
    let view = c.view_snapshot();
    let oid = (0..10_000u64)
        .map(ObjectId)
        .find(|&o| view.place_at(o, partial) != view.place_at(o, VersionId(1)))
        .expect("some object is offloaded at six servers");
    // The same object logged three times in one version window.
    for round in 0..3u64 {
        c.put(oid, payload(round)).unwrap();
    }
    assert_eq!(c.dirty_len(), 3);
    let full = c.resize(10);
    let view = c.view_snapshot();
    let diff = ech_core::reintegration::placement_moves(
        &view.place_at(oid, partial).unwrap(),
        &view.place_at(oid, full).unwrap(),
    );
    // The first entry's task restamps the header at `full`, so the
    // two duplicates no longer qualify and pop without planning work.
    let stats = c.reintegrate_batch(8).unwrap();
    assert_eq!(stats.tasks, 1);
    assert_eq!(stats.moves, diff.len());
    assert_eq!(c.dirty_len(), 0);
    assert_eq!(c.get(oid).unwrap(), payload(2));
}

#[test]
fn original_strategy_cluster_works_too() {
    let mut cfg = ClusterConfig::paper();
    cfg.strategy = Strategy::Original;
    let c = Cluster::new(cfg);
    for i in 0..50u64 {
        c.put(ObjectId(i), payload(i)).unwrap();
    }
    for i in 0..50u64 {
        assert_eq!(c.get(ObjectId(i)).unwrap(), payload(i));
    }
}

#[test]
fn concurrent_writers_and_reintegration() {
    let c = cluster();
    c.resize(5);
    // Preload some dirty data.
    for i in 0..100u64 {
        c.put(ObjectId(i), payload(i)).unwrap();
    }
    c.resize(10);
    let worker = c.start_background_worker(std::time::Duration::from_millis(1));
    // Writers race with the background re-integration.
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let c = &c;
            s.spawn(move || {
                for i in 0..200u64 {
                    let oid = ObjectId(1000 + t * 1000 + i);
                    c.put(oid, payload(oid.raw())).unwrap();
                }
            });
        }
    });
    // Wait for the table to drain.
    let mut spins = 0;
    while c.dirty_len() > 0 && spins < 5000 {
        std::thread::sleep(std::time::Duration::from_millis(1));
        spins += 1;
    }
    c.stop_background_worker();
    worker.join().unwrap();
    assert_eq!(c.dirty_len(), 0);
    // Everything readable and fully placed.
    for i in 0..100u64 {
        assert!(c.is_fully_placed(ObjectId(i)));
    }
    for t in 0..4u64 {
        for i in 0..200u64 {
            let oid = ObjectId(1000 + t * 1000 + i);
            assert_eq!(c.get(oid).unwrap(), payload(oid.raw()));
        }
    }
}

#[test]
fn balanced_reads_track_the_equal_work_layout() {
    // With reads spread round-robin over replicas, each server's read
    // count is proportional to the data it stores — the layout's read
    // performance proportionality claim (§III-C).
    let c = cluster();
    let objects = 4_000u64;
    for i in 0..objects {
        c.put(ObjectId(i), payload(i)).unwrap();
    }
    let writes_baseline: Vec<u64> = c.nodes().iter().map(|n| n.op_counts().0).collect();
    for round in 0..4u64 {
        for i in 0..objects {
            let _ = c
                .get_with(ObjectId((i + round * 7) % objects), ReadPolicy::Balanced)
                .unwrap();
        }
    }
    let stored: Vec<f64> = c.nodes().iter().map(|n| n.object_count() as f64).collect();
    let reads: Vec<f64> = c
        .nodes()
        .iter()
        .zip(&writes_baseline)
        .map(|(n, &base)| (n.op_counts().0 - base) as f64)
        .collect();
    let total_stored: f64 = stored.iter().sum();
    let total_reads: f64 = reads.iter().sum();
    for i in 0..10 {
        let stored_frac = stored[i] / total_stored;
        let read_frac = reads[i] / total_reads;
        assert!(
            (stored_frac - read_frac).abs() < 0.05,
            "server {}: stores {:.3} of data but serves {:.3} of reads",
            i + 1,
            stored_frac,
            read_frac
        );
    }
}

#[test]
fn first_replica_policy_is_more_skewed_than_balanced() {
    let skew = |policy: ReadPolicy| -> f64 {
        let c = cluster();
        for i in 0..2_000u64 {
            c.put(ObjectId(i), payload(i)).unwrap();
        }
        let base: Vec<u64> = c.nodes().iter().map(|n| n.op_counts().0).collect();
        for i in 0..2_000u64 {
            let _ = c.get_with(ObjectId(i), policy).unwrap();
        }
        let reads: Vec<f64> = c
            .nodes()
            .iter()
            .zip(&base)
            .map(|(n, &b)| (n.op_counts().0 - b) as f64)
            .collect();
        let stored: Vec<f64> = c.nodes().iter().map(|n| n.object_count() as f64).collect();
        // Sum of absolute deviation between read share and data share.
        let tr: f64 = reads.iter().sum();
        let ts: f64 = stored.iter().sum();
        reads
            .iter()
            .zip(&stored)
            .map(|(r, s)| (r / tr - s / ts).abs())
            .sum()
    };
    assert!(
        skew(ReadPolicy::Balanced) < skew(ReadPolicy::FirstReplica),
        "balanced reads should track the data distribution more closely"
    );
}

#[test]
fn coordinator_restart_resumes_reintegration() {
    let c = cluster();
    c.resize(5);
    for i in 0..150u64 {
        c.put(ObjectId(i), payload(i)).unwrap();
    }
    // Coordinator dies mid-flight; a new one recovers from the
    // metadata store. Node disks are untouched.
    let c2 = c.restart();
    assert_eq!(c2.dirty_len(), 150);
    assert_eq!(c2.current_version(), c.current_version());
    for i in 0..150u64 {
        assert_eq!(c2.get(ObjectId(i)).unwrap(), payload(i));
    }
    // The restarted coordinator finishes the elastic cycle.
    c2.resize(10);
    let stats = c2.reintegrate_all();
    assert!(stats.tasks > 0);
    assert_eq!(c2.dirty_len(), 0);
    for i in 0..150u64 {
        assert!(c2.is_fully_placed(ObjectId(i)));
        assert_eq!(c2.get(ObjectId(i)).unwrap(), payload(i));
    }
}

#[test]
fn restart_mid_reintegration_loses_no_work() {
    let c = cluster();
    c.resize(4);
    for i in 0..200u64 {
        c.put(ObjectId(i), payload(i)).unwrap();
    }
    c.resize(10);
    // Process only part of the backlog, then "crash" the coordinator.
    for _ in 0..40 {
        let _ = c.reintegrate_batch(1);
    }
    let c2 = c.restart();
    c2.reintegrate_all();
    assert_eq!(c2.dirty_len(), 0);
    for i in 0..200u64 {
        assert!(c2.is_fully_placed(ObjectId(i)), "object {i}");
    }
}

#[test]
fn restart_keeps_headers_so_reads_still_reject_stale_copies() {
    let c = cluster();
    let overwrite = |i: u64| payload(i + 1_000);
    for i in 0..100u64 {
        c.put(ObjectId(i), payload(i)).unwrap();
    }
    c.resize(5);
    for i in 0..100u64 {
        c.put(ObjectId(i), overwrite(i)).unwrap();
    }
    // Full power again, nothing re-integrated: the full-power
    // placement still holds the first write wherever the offloaded
    // overwrite landed elsewhere, and only the header's version
    // tells a read to pass those copies over.
    c.resize(10);
    let before: Vec<_> = (0..100u64)
        .map(|i| c.headers().header(ObjectId(i)))
        .collect();
    assert!(before.iter().all(Option::is_some));

    let c2 = c.restart();
    assert_eq!(c2.headers().len(), 100);
    for i in 0..100u64 {
        let oid = ObjectId(i);
        assert_eq!(c2.headers().header(oid), before[i as usize], "{oid:?}");
        assert_eq!(c2.get(oid).unwrap(), overwrite(i), "{oid:?}");
    }
}

#[test]
fn fault_free_elastic_cycle_moves_no_counter() {
    let c = cluster();
    for i in 0..200u64 {
        c.put(ObjectId(i), payload(i)).unwrap();
    }
    for i in 0..200u64 {
        assert_eq!(c.get(ObjectId(i)).unwrap(), payload(i));
    }
    c.resize(5);
    for i in 200..400u64 {
        c.put(ObjectId(i), payload(i)).unwrap();
    }
    c.resize(10);
    c.reintegrate_all();
    assert!(c.migrated_bytes() > 0, "the cycle re-integrated data");
    assert_eq!(c.dirty_len(), 0);
    assert_eq!(c.counters(), CounterSnapshot::default());
}

#[test]
fn counters_survive_a_restart() {
    let plan = FaultPlan::uniform_io_errors(10, 0xC0_DE, 0.2);
    let clock = Arc::new(crate::fault::VirtualClock::new());
    let c = Cluster::with_faults(ClusterConfig::paper(), plan, clock);
    for i in 0..100u64 {
        // Some writes run out of retries; only the counts matter here.
        let _ = c.put(ObjectId(i), payload(i));
    }
    assert!(
        c.counters().retries > 0,
        "injected errors must cost retries"
    );
    assert!(c.counters().io_errors > 0);
    let c2 = c.restart();
    assert_eq!(c2.counters(), c.counters());
}

/// Placement is deterministic per config, so an unfaulted twin
/// cluster tells a fault-plan test which servers an object lands on.
fn placement_of(cfg: &ClusterConfig, oid: ObjectId) -> Vec<ServerId> {
    let c = Cluster::new(cfg.clone());
    c.locate(oid).unwrap().servers().to_vec()
}

/// `oid`'s primary replica under `cfg` at full power, and its
/// secondaries in placement order.
fn primary_and_secondaries(cfg: &ClusterConfig, oid: ObjectId) -> (ServerId, Vec<ServerId>) {
    let placed = Cluster::new(cfg.clone()).locate(oid).unwrap();
    let mut secondaries = placed.servers().to_vec();
    let primary = secondaries.remove(placed.primary_slot());
    (primary, secondaries)
}

#[test]
fn write_quorum_required_counts() {
    assert_eq!(WriteQuorum::All.required(3), 3);
    assert_eq!(WriteQuorum::PrimaryPlusMajority.required(2), 2);
    assert_eq!(WriteQuorum::PrimaryPlusMajority.required(3), 2);
    assert_eq!(WriteQuorum::PrimaryPlusMajority.required(5), 3);
    assert_eq!(WriteQuorum::PrimaryPlusMajority.required(1), 1);
    assert_eq!(WriteQuorum::AtLeast(0).required(3), 1);
    assert_eq!(WriteQuorum::AtLeast(9).required(3), 3);
}

#[test]
fn degraded_write_acks_at_quorum_and_heals() {
    use crate::fault::{FaultPlan, NodeFaultSpec};
    let mut cfg = ClusterConfig::paper();
    cfg.replicas = 3;
    let oid = ObjectId(77);
    let (_, secondaries) = primary_and_secondaries(&cfg, oid);
    // One secondary fails every attempt of the put (the retry budget
    // is 4 attempts; the error window covers exactly its first 4
    // ops), then recovers — deterministic by construction.
    let mut plan = FaultPlan::default();
    plan.set_node(
        secondaries[0].index(),
        NodeFaultSpec {
            io_error_prob: 1.0,
            io_error_until_op: cfg.retry.max_attempts as u64,
            ..NodeFaultSpec::default()
        },
    );
    let c = Cluster::with_faults(cfg, plan, Arc::new(SystemClock::new()));
    c.put(oid, payload(77)).unwrap();
    assert!(!c.is_fully_placed(oid), "one replica must be missing");
    assert_eq!(c.dirty_len(), 1, "degraded ack logs a dirty entry");
    let snap = c.counters();
    assert_eq!(snap.quorum_acks, 1);
    assert_eq!(snap.replicas_missed, 1);
    assert_eq!(snap.retries, 3);
    // Readable from the surviving replicas meanwhile.
    assert_eq!(c.get(oid).unwrap(), payload(77));
    // Healing (run first by reintegrate_all) restores the replica
    // and the table drains at full power.
    c.reintegrate_all();
    assert!(c.is_fully_placed(oid));
    assert_eq!(c.dirty_len(), 0);
    assert_eq!(c.counters().io_errors, 4);
}

#[test]
fn quorum_failure_rejects_the_write() {
    use crate::fault::{FaultPlan, NodeFaultSpec};
    let mut cfg = ClusterConfig::paper();
    cfg.replicas = 3;
    let oid = ObjectId(321);
    let (_, secondaries) = primary_and_secondaries(&cfg, oid);
    let mut plan = FaultPlan::default();
    for &s in &secondaries {
        plan.set_node(
            s.index(),
            NodeFaultSpec {
                io_error_prob: 1.0,
                ..NodeFaultSpec::default()
            },
        );
    }
    let c = Cluster::with_faults(cfg, plan, Arc::new(SystemClock::new()));
    let err = c.put(oid, payload(321)).unwrap_err();
    assert_eq!(
        err,
        ClusterError::QuorumNotReached {
            written: 1,
            required: 2
        }
    );
    assert!(err.is_retryable());
    // The write was not acknowledged: no header, no dirty entry.
    assert_eq!(c.dirty_len(), 0);
    assert!(c.headers().header(oid).is_none());
}

#[test]
fn transient_failures_surface_as_unavailable_not_notfound() {
    use crate::fault::{FaultPlan, NodeFaultSpec};
    // Unfaulted: a missing object is an authoritative NotFound.
    let c = cluster();
    assert_eq!(c.get(ObjectId(404)), Err(ClusterError::NotFound));

    // Faulted: the secondary errors on every op and the primary goes
    // dark — every probe failure could be transient, so the read
    // must report a retryable Unavailable, not NotFound.
    let mut cfg = ClusterConfig::paper();
    cfg.servers = 2;
    cfg.replicas = 2;
    cfg.kv_shards = 2;
    cfg.write_quorum = WriteQuorum::AtLeast(1);
    let oid = ObjectId(5);
    let (primary, secondaries) = primary_and_secondaries(&cfg, oid);
    let mut plan = FaultPlan::default();
    plan.set_node(
        secondaries[0].index(),
        NodeFaultSpec {
            io_error_prob: 1.0,
            ..NodeFaultSpec::default()
        },
    );
    let c = Cluster::with_faults(cfg, plan, Arc::new(SystemClock::new()));
    c.put(oid, payload(5)).unwrap();
    assert_eq!(c.counters().replicas_missed, 1);
    c.nodes()[primary.index()].set_powered(false);
    assert_eq!(
        c.get_with(oid, ReadPolicy::FirstReplica),
        Err(ClusterError::Unavailable)
    );
    assert!(ClusterError::Unavailable.is_retryable());
    assert!(c.counters().unavailable_errors >= 1);
}

#[test]
fn silent_crashes_are_detected_and_excluded() {
    use crate::fault::{FaultPlan, NodeFaultSpec};
    let mut plan = FaultPlan::default();
    plan.set_node(
        2,
        NodeFaultSpec {
            crash_at_op: Some(0),
            ..NodeFaultSpec::default()
        },
    );
    let c = Cluster::with_faults(ClusterConfig::paper(), plan, Arc::new(SystemClock::new()));
    assert!(c.detect_and_mark_crashed().is_empty());
    // Any op on node 2 fires the injected crash; the coordinator is
    // not told (that is what makes it silent).
    assert!(c.nodes()[2].get(ObjectId(1)).is_err());
    assert!(!c.nodes()[2].is_powered());
    assert_eq!(c.active_count(), 10);
    assert_eq!(c.detect_and_mark_crashed(), vec![ServerId(2)]);
    assert_eq!(c.active_count(), 9);
    // New writes no longer target the dead disk.
    for i in 100..160u64 {
        let p = c.put(ObjectId(i), payload(i)).unwrap();
        assert!(!p.contains(ServerId(2)));
    }
    // Idempotent: nothing newly dark on a second scan.
    assert!(c.detect_and_mark_crashed().is_empty());
}

#[test]
fn hedged_reads_dodge_a_slow_replica() {
    use crate::fault::{FaultPlan, NodeFaultSpec, VirtualClock};
    use std::time::Duration;
    let cfg = ClusterConfig::paper();
    let oid = ObjectId(9000);
    let servers = placement_of(&cfg, oid);
    let mut plan = FaultPlan::default();
    plan.set_node(
        servers[0].index(),
        NodeFaultSpec {
            delay: Some(Duration::from_millis(150)),
            ..NodeFaultSpec::default()
        },
    );
    // The probe's latency budget runs on the injected clock: the
    // slow replica's 150 ms delay is pure virtual time, and
    // overrunning the 2 ms threshold fires the hedge
    // deterministically.
    let clock = Arc::new(VirtualClock::new());
    let c = Cluster::with_faults(cfg, plan, clock.clone());
    c.put(oid, payload(9000)).unwrap();
    let hedged_before = c.counters().hedged_reads;
    let t0 = clock.now();
    let data = c
        .get_with(
            oid,
            ReadPolicy::Hedged {
                threshold: Duration::from_millis(2),
            },
        )
        .unwrap();
    assert_eq!(data, payload(9000));
    assert!(
        c.counters().hedged_reads > hedged_before,
        "overrunning the threshold must fire the hedge"
    );
    assert!(
        clock.now().saturating_sub(t0) >= Duration::from_millis(2),
        "the slow probe must have consumed the latency budget"
    );
    // A read that stays under the budget must NOT hedge: the fast
    // secondary answers within threshold once it is probed first.
    let hedged_mid = c.counters().hedged_reads;
    let fast = c
        .get_with(
            oid,
            ReadPolicy::Hedged {
                threshold: Duration::from_secs(1),
            },
        )
        .unwrap();
    assert_eq!(fast, payload(9000));
    assert_eq!(
        c.counters().hedged_reads,
        hedged_mid,
        "a probe inside its budget must not hedge"
    );
}

#[test]
fn open_breaker_fast_fails_charge_the_clock() {
    use crate::fault::{FaultPlan, NodeFaultSpec, VirtualClock};
    use crate::net::BreakerConfig;
    let mut cfg = ClusterConfig::paper();
    cfg.breaker = Some(BreakerConfig {
        failure_threshold: 2,
        cooldown: Duration::from_secs(3600),
    });
    let backoff_base = cfg.retry.base;
    let oid = ObjectId(31);
    let servers = placement_of(&cfg, oid);
    let mut plan = FaultPlan::default();
    plan.set_node(
        servers[0].index(),
        NodeFaultSpec {
            io_error_prob: 1.0,
            ..NodeFaultSpec::default()
        },
    );
    let clock = Arc::new(VirtualClock::new());
    let c = Cluster::with_faults(cfg, plan, clock.clone());
    // Trip the primary's breaker with two message-level failures.
    let node = c.node(servers[0]).unwrap();
    for _ in 0..2 {
        assert!(matches!(
            c.rpc(servers[0], node, |n| n.get(oid)),
            Err(NodeError::Io)
        ));
    }
    // Every fast-fail must advance the virtual clock by at least one
    // backoff base — a zero-cost rejection would let a poll loop spin
    // against the open breaker without time ever passing, so the
    // cooldown (and any deadline) could never expire.
    let t0 = clock.now();
    let spins = 50u32;
    for _ in 0..spins {
        assert!(matches!(
            c.rpc(servers[0], node, |n| n.get(oid)),
            Err(NodeError::BreakerOpen)
        ));
    }
    assert!(
        clock.now().saturating_sub(t0) >= backoff_base * spins,
        "open-breaker fast-fails must charge the clock"
    );
}

/// The explorer's seven message fates are the fabric's verdicts:
/// for each fate, the result the sender sees, the clock charge and
/// the number of times `op` executes are what the dedicated per-fate
/// arm `Cluster::rpc` used to carry produced. Each row replays a
/// one-decision `m<code>` trace through the real explorer, so the
/// whole path (`msg_fate` → `SendVerdict::from_explorer` → the one
/// match) is what is measured.
#[cfg(feature = "modelcheck")]
#[test]
fn explorer_fates_are_fabric_verdicts() {
    use crate::fault::VirtualClock;
    use std::cell::Cell;
    let timeout = NetPlan::default_rpc_timeout();
    let table = [
        ("Deliver", Ok(()), Duration::ZERO, 1),
        ("DropRequest", Err(NodeError::Timeout), timeout, 0),
        ("DropResponse", Err(NodeError::Timeout), timeout, 1),
        ("Duplicate", Ok(()), Duration::ZERO, 2),
        ("Reorder", Ok(()), timeout, 1),
        (
            "PartitionedInbound",
            Err(NodeError::Partitioned),
            timeout,
            0,
        ),
        (
            "PartitionedOutbound",
            Err(NodeError::Partitioned),
            timeout,
            1,
        ),
    ];
    let cfg = ech_modelcheck::Config {
        msg_budget: 1,
        ..ech_modelcheck::Config::default()
    };
    for (code, (fate, want, charge, execs)) in table.into_iter().enumerate() {
        let trace = ech_modelcheck::parse_trace(&format!("v3:sc:b2:m1:fates:m{code}"))
            .expect("well-formed trace");
        let seen = Arc::new(parking_lot::Mutex::new(None));
        let report = ech_modelcheck::replay("fates", &cfg, trace.prefix, |env| {
            let clock = Arc::new(VirtualClock::new());
            let c =
                Cluster::with_faults(ClusterConfig::paper(), FaultPlan::default(), clock.clone());
            let seen = Arc::clone(&seen);
            env.spawn(move || {
                let calls = Cell::new(0);
                let node = c.node(ServerId(0)).unwrap();
                let got = c.rpc(ServerId(0), node, |_| {
                    calls.set(calls.get() + 1);
                    Ok(())
                });
                *seen.lock() = Some((got, clock.now(), calls.get()));
            });
        });
        assert!(report.failure.is_none(), "{fate}: {:?}", report.failure);
        assert_eq!(seen.lock().take(), Some((want, charge, execs)), "{fate}");
    }
}

#[test]
fn resize_validates_bounds() {
    let c = cluster();
    let v = c.resize(6);
    assert_eq!(v, VersionId(2));
    assert_eq!(c.active_count(), 6);
    assert!(!c.nodes()[9].is_powered());
    assert!(c.nodes()[5].is_powered());
}
