//! Chaos property tests: deterministic fault injection (transient I/O
//! errors, silent node crashes, kv shard outages) interleaved with
//! resizes must never lose an acknowledged write, and the degraded
//! cluster must converge back to full replication — under-replication
//! zero, dirty table drained — once the faults clear.
//!
//! Both drills are scenarios of `ech_cluster::scenario`: every fault
//! decision is a pure hash of `(seed, node, op-counter)` on a virtual
//! clock, so each generated case replays identically.

use ech_cluster::scenario::{self, Scenario, Step};
use ech_cluster::ShardOutage;
use ech_core::ids::ObjectId;
use proptest::prelude::*;

/// Transient-error windows close once a node has seen this many ops, so
/// the convergence phase runs fault-free.
const IO_WINDOW: u64 = 200;

#[derive(Debug, Clone)]
enum Op {
    /// Write the next fresh object (unique oid per put).
    Put,
    /// Resize to `3 + k % 8` active servers (3..=10, >= replicas).
    Resize(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => Just(Op::Put),
        1 => (0u8..255).prop_map(Op::Resize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn acked_writes_survive_chaos(
        seed in 0u64..(1u64 << 48),
        rate_pct in 5u32..16,
        (crash_a, crash_b_off) in (0u8..10, 0u8..9),
        (c1, c2) in (5u64..40, 5u64..40),
        ops in proptest::collection::vec(op_strategy(), 15..50),
    ) {
        let node_a = crash_a as usize;
        let node_b = ((crash_a + 1 + crash_b_off) % 10) as usize;
        let rate = rate_pct as f64 / 100.0;
        // Each resize runs before the put that follows it.
        let mut objects = 0u64;
        let mut schedule = Vec::new();
        for op in ops {
            match op {
                Op::Put => objects += 1,
                Op::Resize(k) => schedule.push((objects, Step::Resize(3 + (k as usize) % 8))),
            }
        }
        let plan = scenario::disk_faults(10, seed, rate, IO_WINDOW, &[(node_a, c1), (node_b, c2)]);
        let mut sc = Scenario::r3(plan, objects);
        (sc.schedule, sc.maintain, sc.read_back) = (schedule, true, true);
        let (_, out) = sc.run();
        prop_assert_eq!(out.faulted.crashes, 2, "both planned crashes fired");
        out.assert_survived();
    }
}

/// A pinned scenario exercising everything at once — 8% transient error
/// rate, two silent crashes, kv outages on both metadata shards, three
/// resizes — with exact expectations on the injected-fault counters.
#[test]
fn fixed_seed_chaos_with_kv_outages_converges() {
    let mut plan = scenario::disk_faults(10, 0xEC0_5EED, 0.08, IO_WINDOW, &[(3, 12), (7, 25)]);
    // Outage windows on the shard actually holding the dirty table and
    // on the shard serving more of this run's object headers (oids
    // 0..80) than any other, so the metadata path must retry through
    // them.
    let probe = ech_kvstore::KvStore::new(10);
    let mut headers_on = [0usize; 10];
    for i in 0..80 {
        headers_on[probe.header_shard_of(ObjectId(i))] += 1;
    }
    let busiest_header_shard = (0..10).max_by_key(|&s| headers_on[s]).unwrap();
    plan.kv_outages = vec![
        ShardOutage {
            shard: probe.shard_of("ech:dirty"),
            from_op: 10,
            until_op: 40,
        },
        ShardOutage {
            shard: busiest_header_shard,
            from_op: 60,
            until_op: 100,
        },
    ];
    let mut sc = Scenario::r3(plan, 80);
    sc.schedule = vec![
        (20, Step::Resize(6)),
        (45, Step::Resize(9)),
        (65, Step::Resize(10)),
    ];
    sc.maintain = true;
    let (_, out) = sc.run();
    let acked = out.acked.len();
    assert!(acked >= 70, "most writes must ack, got {acked}");
    assert_eq!(out.faulted.crashes, 2);
    assert!(out.faulted.io_errors > 0, "the 8% error rate must bite");
    // The dirty-table window is 30 kv ops wide and every refusal is one
    // op, so anything past 30 was refused by the header window.
    assert!(
        out.faulted.kv_unavailable > 30,
        "both shard outages must be exercised, got {}",
        out.faulted.kv_unavailable
    );
    out.assert_survived();
    assert!(
        out.counters.retries > 0,
        "transient faults must have caused data-path retries"
    );
}
