//! Determinism properties of the message fault plane: every verdict is
//! a pure hash of `(seed, link, per-link message counter)`, so the fate
//! sequence of one link must not care how traffic to *other* links
//! interleaves with it; the stats counters must account for each
//! injected fault exactly once; and an explicit heal must override a
//! partition window that is still mid-flight on the scripted clock.

use ech_cluster::{
    Counters, LinkFaultSpec, NetFabric, NetPlan, PartitionDirection, PartitionWindow, SendVerdict,
    VirtualClock,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const NODES: usize = 4;

/// A fabric on a virtual clock, and the counter set it counts into.
fn fabric(plan: NetPlan) -> (NetFabric, Arc<Counters>) {
    let counters = Arc::new(Counters::default());
    let clock = Arc::new(VirtualClock::new());
    (
        NetFabric::new(NODES, plan, clock, counters.clone()),
        counters,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same `(seed, link, counter)` → same verdict, regardless of how
    /// much traffic other links carry in between: a fabric that only
    /// ever talks to link 0 and a fabric whose link-0 sends are
    /// interleaved with arbitrary traffic to links 1..4 must produce
    /// byte-identical link-0 fate sequences.
    #[test]
    fn link_fates_are_independent_of_interleaved_traffic(
        seed in 0u64..u64::MAX,
        drop_p in 0.0f64..0.9,
        dup_p in 0.0f64..0.9,
        reorder_p in 0.0f64..0.9,
        schedule in proptest::collection::vec(1usize..NODES, 0..48),
    ) {
        let spec = LinkFaultSpec {
            drop_prob: drop_p,
            dup_prob: dup_p,
            reorder_prob: reorder_p,
            delay: Some((Duration::from_micros(100), Duration::from_micros(500))),
        };
        let (quiet, _) = fabric(NetPlan::uniform(seed, spec));
        let baseline: Vec<SendVerdict> =
            (0..24).map(|_| quiet.before_send(0)).collect();

        let (busy, _) = fabric(NetPlan::uniform(seed, spec));
        let mut noise = schedule.iter().cycle();
        let mut interleaved = Vec::with_capacity(baseline.len());
        for i in 0..baseline.len() {
            // Burst a varying amount of other-link traffic first.
            for _ in 0..(i % 3) {
                if let Some(&dst) = noise.next() {
                    busy.before_send(dst);
                }
            }
            interleaved.push(busy.before_send(0));
        }
        prop_assert_eq!(baseline, interleaved);
    }

    /// Every fault the fabric injects shows up in the stats exactly
    /// once, and nothing else does: with no latency band configured,
    /// `duplicated` equals the `Deliver { duplicate: true }` verdicts,
    /// `dropped` equals the lost messages, `reordered` equals the late
    /// deliveries (the only source of a `Some(delay)` here) — and
    /// `delayed` stays zero, because a reorder charge is not a latency
    /// charge.
    #[test]
    fn stats_count_each_fault_exactly_once(
        seed in 0u64..u64::MAX,
        drop_p in 0.0f64..0.9,
        dup_p in 0.0f64..0.9,
        reorder_p in 0.0f64..0.9,
        sends in proptest::collection::vec(0usize..NODES, 1..96),
    ) {
        let spec = LinkFaultSpec {
            drop_prob: drop_p,
            dup_prob: dup_p,
            reorder_prob: reorder_p,
            delay: None,
        };
        let (net, counters) = fabric(NetPlan::uniform(seed, spec));
        let (mut drops, mut dups, mut late) = (0u64, 0u64, 0u64);
        for &dst in &sends {
            match net.before_send(dst) {
                SendVerdict::Deliver { delay, duplicate } => {
                    if duplicate {
                        dups += 1;
                    }
                    if delay.is_some() {
                        late += 1;
                    }
                }
                SendVerdict::DropRequest | SendVerdict::DropResponse => drops += 1,
                SendVerdict::Partitioned { .. } => unreachable!("no windows scripted"),
            }
        }
        let stats = counters.snapshot();
        prop_assert_eq!(stats.net_sends, sends.len() as u64);
        prop_assert_eq!(stats.net_dropped, drops);
        prop_assert_eq!(stats.net_duplicated, dups);
        prop_assert_eq!(stats.net_reordered, late);
        prop_assert_eq!(stats.net_delayed, 0, "reorder-only lateness is not a latency charge");
        prop_assert_eq!(stats.net_partitioned_sends, 0);
    }
}

/// `heal_partitions()` must be visible to a window that is still
/// covering the clock: the cut lifts immediately, and because
/// partitioned verdicts never consumed a counter tick, the post-heal
/// fate sequence is exactly the sequence a never-partitioned fabric
/// produces from message zero.
#[test]
fn heal_overrides_an_in_flight_window() {
    let spec = LinkFaultSpec {
        drop_prob: 0.4,
        dup_prob: 0.3,
        reorder_prob: 0.2,
        delay: Some((Duration::from_micros(50), Duration::from_micros(200))),
    };
    let mut plan = NetPlan::uniform(7, spec);
    plan.partitions.push(PartitionWindow {
        from: Duration::ZERO,
        until: Duration::MAX,
        isolated: vec![0],
        direction: PartitionDirection::Both,
    });
    let (cut, counters) = fabric(plan);

    assert!(cut.partition_active(), "window covers the clock from t=0");
    for _ in 0..5 {
        assert_eq!(
            cut.before_send(0),
            SendVerdict::Partitioned {
                request_delivered: false
            }
        );
    }
    assert_eq!(counters.snapshot().net_partitioned_sends, 5);

    cut.heal_partitions();
    assert!(
        !cut.partition_active(),
        "an explicit heal overrides a window whose scripted end has not arrived"
    );

    let (control, _) = fabric(NetPlan::uniform(7, spec));
    let healed: Vec<SendVerdict> = (0..16).map(|_| cut.before_send(0)).collect();
    let fresh: Vec<SendVerdict> = (0..16).map(|_| control.before_send(0)).collect();
    assert_eq!(
        healed, fresh,
        "partitioned sends must not have consumed counter ticks"
    );
    assert_eq!(
        counters.snapshot().net_partitioned_sends,
        5,
        "no new partition verdicts after heal"
    );
}
