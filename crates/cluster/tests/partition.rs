//! Partition-tolerance property tests over the message fault plane:
//! under scripted (possibly asymmetric) partitions, quorum writes must
//! either fail cleanly within their deadline budget or acknowledge with
//! the missed replicas recorded in the dirty table — and once the
//! partition heals, healing plus re-integration must converge the store
//! with zero acknowledged writes lost.
//!
//! Every message verdict is a pure hash of `(seed, link, message
//! counter)` and every window runs on a [`VirtualClock`], so each case
//! replays identically.

use bytes::Bytes;
use ech_cluster::{
    BreakerConfig, Clock, Cluster, ClusterConfig, FaultPlan, LinkFaultSpec, NetPlan,
    PartitionDirection, PartitionWindow, VirtualClock,
};
use ech_core::ids::ObjectId;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Per-operation budget: generous next to the 2 ms rpc timeout, so only
/// genuinely cut links spend it.
const OP_BUDGET: Duration = Duration::from_millis(100);

/// Allowed overshoot past the budget: one in-flight rpc timeout plus one
/// clamped backoff sleep (the deadline is checked *between* sends, never
/// mid-flight).
const BUDGET_SLACK: Duration = Duration::from_millis(10);

fn value(oid: u64) -> Bytes {
    Bytes::from(format!("partition-object-{oid}"))
}

fn direction(pick: u8) -> PartitionDirection {
    match pick % 3 {
        0 => PartitionDirection::Both,
        1 => PartitionDirection::Inbound,
        _ => PartitionDirection::Outbound,
    }
}

/// A 10-node, 3-replica cluster (quorum = primary + 1) behind a message
/// fabric running `net`, with breakers and the deadline budget on.
fn partitioned_cluster(net: NetPlan) -> (Arc<Cluster>, Arc<VirtualClock>) {
    let mut cfg = ClusterConfig::paper();
    cfg.replicas = 3;
    cfg.op_deadline = Some(OP_BUDGET);
    cfg.breaker = Some(BreakerConfig {
        failure_threshold: 4,
        cooldown: Duration::from_millis(10),
    });
    let plan = FaultPlan {
        net: Some(net),
        ..FaultPlan::default()
    };
    let clock = Arc::new(VirtualClock::new());
    let c = Cluster::with_faults(cfg, plan, clock.clone());
    (c, clock)
}

/// Post-heal convergence: heal degraded writes, drain the dirty table,
/// restore replication.
fn converge(c: &Cluster) {
    c.heal_dirty();
    c.reintegrate_all();
    c.repair();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance drill, generalised: an asymmetric partition
    /// isolating 3 of 10 servers (30%) holds for the whole write phase.
    /// Every write either acks — and is then immediately readable, and
    /// still readable after heal — or fails within its deadline budget.
    #[test]
    fn no_acked_write_lost_across_partition_heal(
        seed in 0u64..(1u64 << 48),
        iso_start in 0u8..10,
        dir_pick in 0u8..3,
        objects in 20u64..60,
    ) {
        let isolated: Vec<u32> = (0..3).map(|k| ((iso_start as u32) + k) % 10).collect();
        let net = NetPlan {
            seed,
            partitions: vec![PartitionWindow {
                from: Duration::ZERO,
                until: Duration::MAX, // holds until the explicit heal
                isolated: isolated.clone(),
                direction: direction(dir_pick),
            }],
            rpc_timeout: Duration::from_millis(2),
            ..NetPlan::default()
        };
        let (c, clock) = partitioned_cluster(net);

        let mut acked: Vec<u64> = Vec::new();
        let mut failed = 0u64;
        for i in 0..objects {
            let oid = ObjectId(i);
            let t0 = clock.now();
            match c.put(oid, value(i)) {
                Ok(_) => {
                    acked.push(i);
                    // Read-your-writes while the partition is still up:
                    // the ack implies the primary is on our side of the
                    // cut.
                    let got = c.get(oid);
                    match got {
                        Ok(v) => prop_assert_eq!(v, value(i)),
                        Err(e) => prop_assert!(
                            false,
                            "read-back of acked object {} failed mid-partition: {}",
                            i, e
                        ),
                    }
                }
                Err(_) => {
                    failed += 1;
                    let spent = clock.now().saturating_sub(t0);
                    prop_assert!(
                        spent <= OP_BUDGET + BUDGET_SLACK,
                        "failed write must give up within its budget, spent {spent:?}"
                    );
                }
            }
        }
        // 30% of the ring is dark: unless every placement dodged it,
        // some writes must have degraded (missed secondaries => dirty
        // entries) or failed; either way the fabric refused sends.
        prop_assert!(
            c.counters().net_partitioned_sends > 0,
            "the cut must have been hit"
        );

        c.net_fabric().expect("fabric installed").heal_partitions();
        // Let the breaker cooldown elapse (on a wall clock this happens
        // by itself; the virtual clock only moves when something sleeps,
        // and breaker fast-fails only charge a backoff base each).
        clock.advance(Duration::from_millis(20));
        converge(&c);

        prop_assert_eq!(c.dirty_len(), 0, "dirty table drains after heal");
        prop_assert_eq!(c.under_replicated(), 0, "replication fully restored");
        for &i in &acked {
            match c.get(ObjectId(i)) {
                Ok(v) => prop_assert_eq!(v, value(i)),
                Err(e) => prop_assert!(false, "acked object {} lost after heal: {}", i, e),
            }
        }
        // Sanity: the run exercised something (all-acked and all-failed
        // are both legal outcomes of a seeded layout, but not both).
        prop_assert_eq!(acked.len() as u64 + failed, objects);
    }
}

/// A partitioned *primary* with a tiny budget: the write must fail with
/// `DeadlineExceeded` (not hang, not mislabel) and stay inside the
/// budget on the clock.
#[test]
fn partitioned_primary_fails_within_deadline_budget() {
    use ech_cluster::ClusterError;
    // Find object 7's primary under the 10-node/3-replica geometry by
    // asking a fault-free twin first.
    let probe = {
        let mut cfg = ClusterConfig::paper();
        cfg.replicas = 3;
        Cluster::new(cfg)
    };
    let oid = ObjectId(7);
    let primary = probe.locate(oid).expect("placement").servers()[0];

    let net = NetPlan {
        seed: 42,
        partitions: vec![PartitionWindow {
            from: Duration::ZERO,
            until: Duration::MAX,
            isolated: vec![primary.index() as u32],
            direction: PartitionDirection::Both,
        }],
        rpc_timeout: Duration::from_millis(2),
        ..NetPlan::default()
    };
    let mut cfg = ClusterConfig::paper();
    cfg.replicas = 3;
    cfg.op_deadline = Some(Duration::from_millis(3));
    let plan = FaultPlan {
        net: Some(net),
        ..FaultPlan::default()
    };
    let clock = Arc::new(VirtualClock::new());
    let c = Cluster::with_faults(cfg, plan, clock.clone());

    let t0 = clock.now();
    let err = c.put(oid, value(7)).expect_err("primary is unreachable");
    assert_eq!(err, ClusterError::DeadlineExceeded);
    let spent = clock.now().saturating_sub(t0);
    assert!(
        spent <= Duration::from_millis(3) + BUDGET_SLACK,
        "clean failure must stay near the budget, spent {spent:?}"
    );
    assert!(
        c.counters().deadline_exceeded >= 1,
        "the budget exhaustion must be counted"
    );
}

/// The seeded stress mix: flaky links (drops + latency), two scripted
/// partition windows — one inbound, one outbound — and resizes in the
/// middle of both. After the last window closes on the clock, the
/// cluster must converge with zero acked-write loss.
#[test]
fn seeded_partition_and_resize_stress_converges() {
    let net = NetPlan {
        seed: 0xEC0_5EED,
        default_link: LinkFaultSpec {
            drop_prob: 0.02,
            dup_prob: 0.01,
            reorder_prob: 0.01,
            delay: Some((Duration::from_micros(20), Duration::from_micros(120))),
        },
        partitions: vec![
            PartitionWindow {
                from: Duration::from_millis(5),
                until: Duration::from_millis(400),
                isolated: vec![7, 8, 9],
                direction: PartitionDirection::Inbound,
            },
            PartitionWindow {
                from: Duration::from_millis(600),
                until: Duration::from_millis(900),
                isolated: vec![2, 3],
                direction: PartitionDirection::Outbound,
            },
        ],
        rpc_timeout: Duration::from_millis(2),
    };
    let (c, clock) = partitioned_cluster(net);

    let mut acked: Vec<u64> = Vec::new();
    for i in 0..120u64 {
        match i {
            // Into the first window: shrink while {7,8,9} are dark.
            20 => {
                c.resize(6);
            }
            // Grow back while the window is still open: the powered-on
            // tail is placement-eligible but unreachable — writes must
            // degrade, not wedge.
            40 => {
                c.resize(10);
            }
            // Between the windows.
            60 => {
                clock.advance(Duration::from_millis(150));
                c.resize(8);
            }
            // Into the outbound window (acks vanish, ops execute).
            80 => {
                clock.advance(Duration::from_millis(80));
                c.resize(10);
            }
            _ => {}
        }
        if c.put(ObjectId(i), value(i)).is_ok() {
            acked.push(i);
        }
    }
    // Run the clock past the last window so the fabric heals on
    // schedule (no explicit heal override in this test).
    clock.advance(Duration::from_secs(2));
    assert!(
        !c.net_fabric().expect("fabric installed").partition_active(),
        "all windows must have closed on the clock"
    );

    let counts = c.counters();
    assert!(
        counts.net_partitioned_sends > 0,
        "partitions must be exercised"
    );
    assert!(counts.net_dropped > 0, "the 2% drop rate must bite");
    assert!(counts.net_delayed > 0, "link latency must be charged");

    converge(&c);
    // A second pass mops up work the first drain re-planned (entries
    // re-logged behind links that have since healed).
    converge(&c);

    assert!(
        acked.len() >= 60,
        "most writes must ack through the chaos, got {}",
        acked.len()
    );
    assert_eq!(c.dirty_len(), 0, "dirty table drains after both heals");
    assert_eq!(c.under_replicated(), 0, "replication fully restored");
    for &i in &acked {
        assert_eq!(c.get(ObjectId(i)).unwrap(), value(i), "object {i}");
    }
    assert!(
        c.counters().breaker_trips > 0,
        "sustained cuts must have tripped at least one breaker"
    );
}

/// History-level acceptance for the acceptance drill: record writes
/// into a held partition, mid-cut read-backs, the heal, convergence,
/// and a full post-heal read sweep — then check the history offline.
/// This is where the spec's fault vocabulary earns its keep: a failed
/// put is ambiguous (the checker branches on whether it applied), a
/// mid-cut read error is information-free `Unavailable`, and only the
/// authoritative `NotFound` constrains the order.
#[cfg(feature = "lincheck")]
#[test]
fn recorded_partition_history_is_linearizable() {
    use ech_lincheck::{check_kv, Outcome, DEFAULT_BUDGET};

    const OBJECTS: u64 = 24;
    let net = NetPlan {
        seed: 0x11C_5EED,
        partitions: vec![PartitionWindow {
            from: Duration::ZERO,
            until: Duration::MAX, // holds until the explicit heal
            isolated: vec![1, 4, 7],
            direction: PartitionDirection::Both,
        }],
        rpc_timeout: Duration::from_millis(2),
        ..NetPlan::default()
    };
    let session = ech_lincheck::recorder::Session::begin();
    let (c, clock) = partitioned_cluster(net);

    let mut acked = 0u64;
    let mut failed = 0u64;
    for i in 0..OBJECTS {
        match c.put(ObjectId(i), value(i)) {
            Ok(_) => {
                acked += 1;
                // Mid-cut read-back: whatever comes back is recorded.
                let _ = c.get(ObjectId(i));
            }
            Err(_) => failed += 1,
        }
    }
    c.net_fabric().expect("fabric installed").heal_partitions();
    clock.advance(Duration::from_millis(20));
    converge(&c);
    // Post-heal sweep over *every* key: an acked write must read back
    // as written, a failed one as either applied or never-happened —
    // and the checker, not this test, decides which outcomes cohere.
    for i in 0..OBJECTS {
        let _ = c.get(ObjectId(i));
    }

    let rec = session.finish();
    match check_kv(&rec.events, DEFAULT_BUDGET) {
        Outcome::Linearizable { keys, ops, .. } => {
            assert_eq!(keys as u64, OBJECTS, "every key reaches the checker");
            assert_eq!(
                ops as u64,
                OBJECTS + acked + OBJECTS,
                "every keyed operation reaches the checker"
            );
        }
        other => panic!(
            "recorded partition history rejected ({acked} acked, {failed} failed): {other:?}"
        ),
    }
}
