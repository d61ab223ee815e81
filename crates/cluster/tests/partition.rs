//! Partition-tolerance property tests over the message fault plane:
//! under scripted (possibly asymmetric) partitions, quorum writes must
//! either fail cleanly within their deadline budget or acknowledge with
//! the missed replicas recorded in the dirty table — and once the
//! partition heals, healing plus re-integration must converge the store
//! with zero acknowledged writes lost.
//!
//! The drills are scenarios of `ech_cluster::scenario`: every message
//! verdict is a pure hash of `(seed, link, message counter)` and every
//! window runs on a virtual clock, so each case replays identically.

use ech_cluster::scenario::{self, Scenario, Step, FLAKY_LINK, OP_BUDGET};
use ech_cluster::{Clock, FaultPlan, LinkFaultSpec, NetPlan, PartitionDirection, PartitionWindow};
use ech_core::ids::ObjectId;
use proptest::prelude::*;
use std::time::Duration;

/// Allowed overshoot past the budget: one in-flight rpc timeout plus one
/// clamped backoff sleep (the deadline is checked *between* sends, never
/// mid-flight).
const BUDGET_SLACK: Duration = Duration::from_millis(10);

fn direction(pick: u8) -> PartitionDirection {
    match pick % 3 {
        0 => PartitionDirection::Both,
        1 => PartitionDirection::Inbound,
        _ => PartitionDirection::Outbound,
    }
}

/// A 10-node, 3-replica cluster (quorum = primary + 1) behind a message
/// fabric running `link` and `partitions`, with breakers and the
/// deadline budget on, writing `objects` oids with bare puts.
fn partitioned(
    seed: u64,
    link: LinkFaultSpec,
    partitions: Vec<PartitionWindow>,
    objects: u64,
    read_back: bool,
) -> Scenario {
    let net = NetPlan {
        partitions,
        ..NetPlan::uniform(seed, link)
    };
    let plan = FaultPlan {
        net: Some(net),
        ..FaultPlan::default()
    };
    let mut sc = Scenario::r3(plan, objects);
    sc.cfg = scenario::with_budget(sc.cfg);
    sc.read_back = read_back;
    sc
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
        let cut = scenario::cut(isolated, direction(dir_pick));
        let (_, out) = partitioned(seed, LinkFaultSpec::default(), vec![cut], objects, true).run();
        prop_assert!(
            out.slowest_failure <= OP_BUDGET + BUDGET_SLACK,
            "failed write must give up within its budget, spent {:?}",
            out.slowest_failure
        );
        // 30% of the ring is dark: unless every placement dodged it,
        // some writes must have degraded (missed secondaries => dirty
        // entries) or failed; either way the fabric refused sends.
        prop_assert!(
            out.faulted.net_partitioned_sends > 0,
            "the cut must have been hit"
        );
        out.assert_survived();
        // Sanity: the run exercised something (all-acked and all-failed
        // are both legal outcomes of a seeded layout, but not both).
        prop_assert_eq!(out.acked.len() as u64 + out.failed, objects);
    }
}

/// A partitioned *primary* with a tiny budget: the write must fail with
/// `DeadlineExceeded` (not hang, not mislabel) and stay inside the
/// budget on the clock.
#[test]
fn partitioned_primary_fails_within_deadline_budget() {
    use ech_cluster::{Cluster, ClusterError};
    // Find object 7's primary under the 10-node/3-replica geometry by
    // asking a fault-free twin first.
    let oid = ObjectId(7);
    let placed = Cluster::new(Scenario::r3(FaultPlan::default(), 0).cfg)
        .locate(oid)
        .expect("placement");
    let primary = placed.servers()[placed.primary_slot()];

    let cut = scenario::cut(vec![primary.index() as u32], PartitionDirection::Both);
    let mut sc = partitioned(42, LinkFaultSpec::default(), vec![cut], 0, false);
    sc.cfg.op_deadline = Some(Duration::from_millis(3));
    sc.cfg.breaker = None;
    let drill = sc.build();
    let (c, clock) = (&drill.cluster, &drill.clock);

    let t0 = clock.now();
    let err = c
        .put(oid, scenario::value(7))
        .expect_err("primary is unreachable");
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
    let window = |from, until, isolated, direction| PartitionWindow {
        from: Duration::from_millis(from),
        until: Duration::from_millis(until),
        isolated,
        direction,
    };
    let windows = vec![
        window(5, 400, vec![7, 8, 9], PartitionDirection::Inbound),
        window(600, 900, vec![2, 3], PartitionDirection::Outbound),
    ];
    let mut sc = partitioned(0xEC0_5EED, FLAKY_LINK, windows, 120, false);
    sc.schedule = vec![
        // Into the first window: shrink while {7,8,9} are dark.
        (20, Step::Resize(6)),
        // Grow back while the window is still open: the powered-on
        // tail is placement-eligible but unreachable — writes must
        // degrade, not wedge.
        (40, Step::Resize(10)),
        // Between the windows.
        (60, Step::Advance(Duration::from_millis(150))),
        (60, Step::Resize(8)),
        // Into the outbound window (acks vanish, ops execute).
        (80, Step::Advance(Duration::from_millis(80))),
        (80, Step::Resize(10)),
        // Past the last window, so the fabric heals on schedule.
        (120, Step::Advance(Duration::from_secs(2))),
    ];
    let drill = sc.build();
    let mut out = drill.write(&sc);
    assert!(
        !drill
            .cluster
            .net_fabric()
            .expect("fabric installed")
            .partition_active(),
        "all windows must have closed on the clock"
    );
    drill.end_faults(&mut out);
    assert!(
        out.faulted.net_partitioned_sends > 0,
        "partitions must be exercised"
    );
    assert!(out.faulted.net_dropped > 0, "the 2% drop rate must bite");
    assert!(out.faulted.net_delayed > 0, "link latency must be charged");

    drill.converge();
    drill.survival(&mut out);
    let acked = out.acked.len();
    assert!(
        acked >= 60,
        "most writes must ack through the chaos, got {acked}"
    );
    out.assert_survived();
    assert!(
        out.counters.breaker_trips > 0,
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
    let cut = scenario::cut(vec![1, 4, 7], PartitionDirection::Both);
    let session = ech_lincheck::recorder::Session::begin();
    let (drill, out) = partitioned(
        0x11C_5EED,
        LinkFaultSpec::default(),
        vec![cut],
        OBJECTS,
        true,
    )
    .run();
    // The survival check read every acked key back; the failed ones
    // must read back as either applied or never-happened — and the
    // checker, not this test, decides which outcomes cohere.
    for i in (0..OBJECTS).filter(|i| !out.acked.contains(i)) {
        let _ = drill.cluster.get(ObjectId(i));
    }

    let (acked, failed) = (out.acked.len() as u64, out.failed);
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
