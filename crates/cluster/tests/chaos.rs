//! Chaos property tests: deterministic fault injection (transient I/O
//! errors, silent node crashes, kv shard outages) interleaved with
//! resizes must never lose an acknowledged write, and the degraded
//! cluster must converge back to full replication — under-replication
//! zero, dirty table drained — once the faults clear.
//!
//! Every fault decision is a pure hash of `(seed, node, op-counter)`, so
//! each generated case replays identically; there is no wall-clock or
//! global-RNG nondeterminism to flake on.

use bytes::Bytes;
use ech_cluster::{Cluster, ClusterConfig, FaultPlan, ShardOutage, SystemClock};
use ech_core::ids::ObjectId;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

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

fn chaos_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::paper();
    cfg.replicas = 3;
    cfg
}

fn value(oid: u64) -> Bytes {
    Bytes::from(format!("chaos-object-{oid}"))
}

/// Write with maintenance-assisted retries: a put that trips over a
/// silent crash gets the membership corrected (detect + repair) and
/// another chance, mirroring how a real coordinator reacts to a failed
/// write. Returns whether the write was acknowledged.
fn put_with_maintenance(c: &Cluster, oid: ObjectId) -> bool {
    for attempt in 0..3 {
        match c.put(oid, value(oid.raw())) {
            Ok(_) => return true,
            Err(_) if attempt < 2 => {
                c.detect_and_mark_crashed();
                c.repair();
            }
            Err(_) => return false,
        }
    }
    false
}

/// Exhaust every node's transient-error window (op counters are the
/// fault clock, so idle nodes must be ticked forward), firing any
/// still-pending crash events along the way.
fn drain_fault_windows(c: &Cluster) {
    let inj = c.fault_injector().expect("chaos clusters run a plan");
    for (i, node) in c.nodes().iter().enumerate() {
        while inj.node_ops(i) < IO_WINDOW {
            let _ = node.get(ObjectId(u64::MAX));
        }
    }
}

/// Clear faults' aftermath: fix membership, re-replicate, return to full
/// power, heal degraded writes and drain the dirty table.
fn converge(c: &Cluster) {
    c.detect_and_mark_crashed();
    c.repair();
    c.resize(10);
    c.repair();
    c.reintegrate_all();
    c.repair();
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
        let mut plan = FaultPlan::uniform_io_errors(10, seed, rate);
        for spec in &mut plan.node_faults {
            spec.io_error_until_op = IO_WINDOW;
        }
        plan.node_faults[node_a].crash_at_op = Some(c1);
        plan.node_faults[node_b].crash_at_op = Some(c2);
        let c = Cluster::with_faults(chaos_config(), plan, Arc::new(SystemClock::new()));

        let mut acked: BTreeMap<u64, Bytes> = BTreeMap::new();
        let mut next_oid = 0u64;
        for op in ops {
            match op {
                Op::Put => {
                    let oid = ObjectId(next_oid);
                    next_oid += 1;
                    if put_with_maintenance(&c, oid) {
                        acked.insert(oid.raw(), value(oid.raw()));
                        // Read-your-write: an acked put is immediately
                        // readable, faults notwithstanding.
                        let mut got = c.get(oid);
                        if got.is_err() {
                            c.detect_and_mark_crashed();
                            c.repair();
                            got = c.get(oid);
                        }
                        match got {
                            Ok(v) => prop_assert_eq!(v, value(oid.raw())),
                            Err(e) => prop_assert!(
                                false,
                                "read-back of acked object {} failed: {}",
                                oid.raw(),
                                e
                            ),
                        }
                    }
                    // Degraded-mode upkeep, as a coordinator would do.
                    if !c.detect_and_mark_crashed().is_empty() {
                        c.repair();
                    }
                }
                Op::Resize(k) => {
                    c.resize(3 + (k as usize) % 8);
                }
            }
        }

        drain_fault_windows(&c);
        prop_assert_eq!(c.counters().crashes, 2, "both planned crashes fired");
        converge(&c);

        prop_assert_eq!(c.dirty_len(), 0, "dirty table drains at full power");
        prop_assert_eq!(c.under_replicated(), 0, "replication fully restored");
        for (oid, val) in &acked {
            let got = c.get(ObjectId(*oid));
            match got {
                Ok(v) => prop_assert_eq!(&v, val),
                Err(e) => prop_assert!(false, "acked object {} lost: {}", oid, e),
            }
        }
    }
}

/// A pinned scenario exercising everything at once — 8% transient error
/// rate, two silent crashes, kv outages on both metadata shards, three
/// resizes — with exact expectations on the injected-fault counters.
#[test]
fn fixed_seed_chaos_with_kv_outages_converges() {
    let mut plan = FaultPlan::uniform_io_errors(10, 0xEC0_5EED, 0.08);
    for spec in &mut plan.node_faults {
        spec.io_error_until_op = IO_WINDOW;
    }
    plan.node_faults[3].crash_at_op = Some(12);
    plan.node_faults[7].crash_at_op = Some(25);
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
    let c = Cluster::with_faults(chaos_config(), plan, Arc::new(SystemClock::new()));

    let mut acked = Vec::new();
    for i in 0..80u64 {
        match i {
            20 => {
                c.resize(6);
            }
            45 => {
                c.resize(9);
            }
            65 => {
                c.resize(10);
            }
            _ => {}
        }
        let oid = ObjectId(i);
        if put_with_maintenance(&c, oid) {
            acked.push(i);
        }
        if !c.detect_and_mark_crashed().is_empty() {
            c.repair();
        }
    }
    assert!(
        acked.len() >= 70,
        "most writes must ack, got {}",
        acked.len()
    );

    drain_fault_windows(&c);
    let stats = c.counters();
    assert_eq!(stats.crashes, 2);
    assert!(stats.io_errors > 0, "the 8% error rate must bite");
    // The dirty-table window is 30 kv ops wide and every refusal is one
    // op, so anything past 30 was refused by the header window.
    assert!(
        stats.kv_unavailable > 30,
        "both shard outages must be exercised, got {}",
        stats.kv_unavailable
    );

    converge(&c);
    assert_eq!(c.dirty_len(), 0);
    assert_eq!(c.under_replicated(), 0);
    for &i in &acked {
        assert_eq!(c.get(ObjectId(i)).unwrap(), value(i), "object {i}");
    }
    let path = c.counters();
    assert!(
        path.retries > 0,
        "transient faults must have caused data-path retries"
    );
}
