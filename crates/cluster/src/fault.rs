//! Deterministic fault injection for the live cluster.
//!
//! A [`FaultPlan`] declares, per node, a transient I/O error probability
//! (optionally limited to an op-count window) and a crash-at-op-N event,
//! plus shard-unavailability windows for the backing key-value store. A
//! [`FaultInjector`] executes the plan with no wall-clock or global RNG
//! state: every decision is a pure hash of `(seed, node, op-counter)`,
//! so a run with the same plan and the same operation order injects
//! exactly the same faults.
//!
//! The injector is threaded through [`crate::node::StorageNode`] and
//! (via [`ech_kvstore::ShardFaultHook`]) through the key-value store. Both
//! hold it as an `Option<Arc<FaultInjector>>`-shaped hook, so the default
//! fault-free path pays only a branch on a pointer.

use crate::counters::Counters;
use crate::sync::{counter_u64, footprint, footprint_read, footprint_write, AtomicU64, Ordering};
use ech_core::hash::mix64;
use ech_kvstore::ShardFaultHook;
use std::sync::Arc;
use std::time::Duration;

/// An injectable time source for everything the data path does with
/// time: retry backoff sleeps, message delays and rpc timeouts, operation
/// deadlines, kv brown-out waits. Production uses [`SystemClock`]; replay
/// harnesses (`ech chaos`, the chaos test suite) substitute a
/// [`VirtualClock`] so a drill is wall-clock-free end to end — the same
/// discipline that makes the fault decisions themselves replayable.
///
/// Data-path code must never read the wall clock directly (analyzer rule
/// D1); it asks the clock owned by the fault harness.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Monotonic time elapsed since the clock's epoch.
    fn now(&self) -> Duration;
    /// Wait out `d`: a wall clock blocks the calling thread, a virtual
    /// clock advances its reading instead.
    fn sleep(&self, d: Duration);
}

/// The production wall clock. This is the *only* sanctioned wall-clock
/// access point on the data path; everything else goes through the
/// [`Clock`] handle so tests can replace time wholesale.
#[derive(Debug, Clone)]
pub struct SystemClock {
    // ech-allow(D1): the system clock IS the sanctioned wall-clock shim.
    epoch: std::time::Instant,
}

impl SystemClock {
    /// A wall clock anchored at construction time.
    pub fn new() -> Self {
        SystemClock {
            // ech-allow(D1): sole sanctioned Instant::now() call site.
            epoch: std::time::Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep(&self, d: Duration) {
        // ech-allow(D1): sole sanctioned thread::sleep call site.
        std::thread::sleep(d);
    }
}

/// A deterministic virtual clock: `sleep` advances the reading by the
/// requested amount without blocking, so seeded fault drills replay at
/// full speed and independent of machine load.
#[derive(Debug)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl Default for VirtualClock {
    fn default() -> Self {
        VirtualClock {
            nanos: counter_u64(0),
        }
    }
}

impl VirtualClock {
    /// A virtual clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Manually advance the clock (test hooks).
    pub fn advance(&self, d: Duration) {
        // The backing counter is deliberately checker-invisible
        // (`counter_u64`), but clock advances order deadline checks and
        // breaker half-open probes — declare the dependence coarsely.
        footprint_write(footprint::CLOCK);
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        footprint_read(footprint::CLOCK);
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

/// Map a hash to a uniform sample in `[0, 1)`. Shared with the message
/// fault plane ([`crate::net`]), which rolls its verdicts the same way.
pub(crate) fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// Fault behaviour of one storage node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFaultSpec {
    /// Probability that an op fails with a transient I/O error.
    pub io_error_prob: f64,
    /// I/O errors are only injected while the node's op counter is below
    /// this bound (`u64::MAX` = forever). A bounded window models a
    /// transient brown-out that ends, letting healing converge.
    pub io_error_until_op: u64,
    /// Crash the node (disk loss + power-off) when its op counter reaches
    /// this value.
    pub crash_at_op: Option<u64>,
}

impl Default for NodeFaultSpec {
    fn default() -> Self {
        NodeFaultSpec {
            io_error_prob: 0.0,
            io_error_until_op: u64::MAX,
            crash_at_op: None,
        }
    }
}

/// An unavailability window of one key-value shard, in kv-op-count space
/// (every checked kv operation advances the counter, so retrying through
/// a window is guaranteed to exit it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOutage {
    /// The shard index that goes dark.
    pub shard: usize,
    /// First kv-op count at which the shard is unavailable.
    pub from_op: u64,
    /// First kv-op count at which the shard is available again.
    pub until_op: u64,
}

/// A declarative fault schedule for a whole cluster.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the decision hash; same seed + same op order = same faults.
    pub seed: u64,
    /// Per-node fault behaviour, indexed by server index. Nodes beyond
    /// the vector's length are fault-free.
    pub node_faults: Vec<NodeFaultSpec>,
    /// Shard-unavailability windows of the backing key-value store.
    pub kv_outages: Vec<ShardOutage>,
    /// Message-level fault schedule (drops, duplicates, delays,
    /// partitions) executed by [`crate::net::NetFabric`]; `None` leaves
    /// the network perfect.
    pub net: Option<crate::net::NetPlan>,
}

impl FaultPlan {
    /// A plan injecting transient I/O errors with probability `prob` on
    /// every one of `nodes` nodes (no crashes, no outages).
    pub fn uniform_io_errors(nodes: usize, seed: u64, prob: f64) -> Self {
        FaultPlan {
            seed,
            node_faults: vec![
                NodeFaultSpec {
                    io_error_prob: prob,
                    ..NodeFaultSpec::default()
                };
                nodes
            ],
            ..FaultPlan::default()
        }
    }

    /// Mutate node `index`'s spec (growing the vector as needed).
    pub fn set_node(&mut self, index: usize, spec: NodeFaultSpec) -> &mut Self {
        if self.node_faults.len() <= index {
            self.node_faults.resize(index + 1, NodeFaultSpec::default());
        }
        self.node_faults[index] = spec;
        self
    }
}

/// What the injector decided about one node operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Fail this op with a transient I/O error.
    Io,
    /// Crash the node: its disk contents vanish and it powers off.
    Crash,
}

/// Executes a [`FaultPlan`] deterministically.
///
/// Decisions are pure functions of `(seed, node, per-node op counter)`;
/// the counters are lock-free atomics, so concurrent clients perturb only
/// the interleaving of op numbers, never the decision for a given number.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    node_ops: Vec<AtomicU64>,
    kv_ops: AtomicU64,
    counters: Arc<Counters>,
}

impl FaultInjector {
    /// An injector for `nodes` nodes running `plan`. Injected faults are
    /// counted in `counters`.
    pub fn new(nodes: usize, plan: FaultPlan, counters: Arc<Counters>) -> Self {
        FaultInjector {
            node_ops: (0..nodes.max(plan.node_faults.len()))
                .map(|_| counter_u64(0))
                .collect(),
            kv_ops: counter_u64(0),
            counters,
            plan,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Ops observed on node `index` so far.
    pub fn node_ops(&self, index: usize) -> u64 {
        self.node_ops
            .get(index)
            // ech-allow(D5): `c` is one of the per-node op counters built
            // with `counter_u64` in `new`; the closure binding hides the
            // constructed field from the counter classification.
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Decide the fate of the next op on node `index`: served, or an
    /// injected fault. Advances the node's op counter.
    pub fn before_node_op(&self, index: usize) -> Result<(), InjectedFault> {
        let Some(spec) = self.plan.node_faults.get(index) else {
            return Ok(());
        };
        let Some(counter) = self.node_ops.get(index) else {
            return Ok(());
        };
        let op = counter.fetch_add(1, Ordering::Relaxed);
        if spec.crash_at_op == Some(op) {
            self.counters.crashes.fetch_add(1, Ordering::Relaxed);
            return Err(InjectedFault::Crash);
        }
        if spec.io_error_prob > 0.0 && op < spec.io_error_until_op {
            // Pre-mix (seed, node) into a lane, then step the lane by the
            // golden-gamma Weyl increment — the standard SplitMix64
            // stream. Folding the raw op in directly (XOR or +1 steps)
            // leaves consecutive-counter structure in the mixer input,
            // which both collapses scenario diversity across nearby seeds
            // and under-disperses the error counts.
            let lane = mix64(self.plan.seed ^ ((index as u64) << 40));
            let stream = lane.wrapping_add(op.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let roll = unit(mix64(stream));
            if roll < spec.io_error_prob {
                self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                return Err(InjectedFault::Io);
            }
        }
        Ok(())
    }
}

impl ShardFaultHook for FaultInjector {
    fn shard_available(&self, shard: usize) -> bool {
        if self.plan.kv_outages.is_empty() {
            return true;
        }
        let op = self.kv_ops.fetch_add(1, Ordering::Relaxed);
        let down = self
            .plan
            .kv_outages
            .iter()
            .any(|o| o.shard == shard && (o.from_op..o.until_op).contains(&op));
        if down {
            self.counters.kv_unavailable.fetch_add(1, Ordering::Relaxed);
        }
        !down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An injector counting into its own set.
    fn injector(nodes: usize, plan: FaultPlan) -> (FaultInjector, Arc<Counters>) {
        let counters = Arc::new(Counters::default());
        (FaultInjector::new(nodes, plan, counters.clone()), counters)
    }

    #[test]
    fn decisions_are_deterministic_per_op_number() {
        let plan = FaultPlan::uniform_io_errors(4, 42, 0.3);
        let (a, counters) = injector(4, plan.clone());
        let (b, _) = injector(4, plan);
        let run = |inj: &FaultInjector| -> Vec<bool> {
            (0..200).map(|_| inj.before_node_op(2).is_err()).collect()
        };
        assert_eq!(run(&a), run(&b));
        let io_errors = counters.snapshot().io_errors;
        assert!(io_errors > 0, "0.3 over 200 ops must fire");
        assert!(io_errors < 200);
    }

    #[test]
    fn error_rate_tracks_probability() {
        let (inj, _) = injector(1, FaultPlan::uniform_io_errors(1, 7, 0.10));
        let n = 20_000;
        let errors = (0..n).filter(|_| inj.before_node_op(0).is_err()).count();
        let rate = errors as f64 / n as f64;
        assert!((rate - 0.10).abs() < 0.01, "observed rate {rate}");
    }

    #[test]
    fn crash_fires_exactly_once_at_its_op() {
        let mut plan = FaultPlan::default();
        plan.set_node(
            1,
            NodeFaultSpec {
                crash_at_op: Some(5),
                ..NodeFaultSpec::default()
            },
        );
        let (inj, counters) = injector(3, plan);
        for op in 0..20 {
            let r = inj.before_node_op(1);
            if op == 5 {
                assert_eq!(r, Err(InjectedFault::Crash));
            } else {
                assert_eq!(r, Ok(()));
            }
        }
        assert_eq!(counters.snapshot().crashes, 1);
    }

    #[test]
    fn io_window_expires() {
        let mut plan = FaultPlan {
            seed: 3,
            ..FaultPlan::default()
        };
        plan.set_node(
            0,
            NodeFaultSpec {
                io_error_prob: 1.0,
                io_error_until_op: 4,
                ..NodeFaultSpec::default()
            },
        );
        let (inj, _) = injector(1, plan);
        for _ in 0..4 {
            assert_eq!(inj.before_node_op(0), Err(InjectedFault::Io));
        }
        for _ in 0..10 {
            assert_eq!(inj.before_node_op(0), Ok(()));
        }
    }

    #[test]
    fn delays_and_outside_plan_nodes() {
        let mut plan = FaultPlan::default();
        plan.set_node(
            0,
            NodeFaultSpec {
                io_error_prob: 1.0,
                ..NodeFaultSpec::default()
            },
        );
        let (inj, counters) = injector(2, plan);
        assert_eq!(inj.before_node_op(0), Err(InjectedFault::Io));
        // Node 1 has no spec; node 7 is outside the vector entirely.
        assert_eq!(inj.before_node_op(1), Ok(()));
        assert_eq!(inj.before_node_op(7), Ok(()));
        assert_eq!(counters.snapshot().io_errors, 1);
    }

    #[test]
    fn kv_outage_window_closes_as_ops_flow() {
        let plan = FaultPlan {
            seed: 0,
            kv_outages: vec![ShardOutage {
                shard: 2,
                from_op: 3,
                until_op: 6,
            }],
            ..FaultPlan::default()
        };
        let (inj, counters) = injector(0, plan);
        let outcomes: Vec<bool> = (0..10).map(|_| inj.shard_available(2)).collect();
        assert_eq!(
            outcomes,
            vec![true, true, true, false, false, false, true, true, true, true]
        );
        // Other shards are never affected (their checks advance the same
        // global counter).
        assert!(inj.shard_available(0));
        assert_eq!(counters.snapshot().kv_unavailable, 3);
    }
}
