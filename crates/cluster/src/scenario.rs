//! One seeded drill runner: the chaos, partition and stress drills and
//! `ech chaos` are [`Scenario`]s of it, and the model checker's
//! scenarios build their clusters with it too ([`Scenario::model`]).
//!
//! Test support, never called from `put`/`get`. A scenario builds a
//! cluster from a config and a [`FaultPlan`] on a [`VirtualClock`],
//! writes fresh oids under a schedule of [`Step`]s, ends the faults,
//! converges, and reads every acked write back into an [`Outcome`].
//! Fault decisions are pure hashes of `(seed, node, op-counter)` and
//! nothing here reads the wall clock, so a scenario replays byte for
//! byte.

use crate::{
    BreakerConfig, Clock, Cluster, ClusterConfig, CounterSnapshot, FaultPlan, LinkFaultSpec,
    PartitionDirection, PartitionWindow, VirtualClock,
};
use bytes::Bytes;
use ech_core::ids::ObjectId;
use ech_core::placement::{Placement, Strategy};
use std::sync::Arc;
use std::time::Duration;

/// Most passes [`Drill::converge`] makes.
const MAX_PASSES: usize = 4;

/// The per-operation budget of the fabric drills: generous next to the
/// 2 ms rpc timeout, so only genuinely cut links spend it.
pub const OP_BUDGET: Duration = Duration::from_millis(100);

/// The fabric drills' flaky link: 2 % drops, 1 % duplicates, 1 %
/// reorders, 20–120 µs latency.
pub const FLAKY_LINK: LinkFaultSpec = LinkFaultSpec {
    drop_prob: 0.02,
    dup_prob: 0.01,
    reorder_prob: 0.01,
    delay: Some((Duration::from_micros(20), Duration::from_micros(120))),
};

/// The payload every scenario writes under oid `i`.
pub fn value(i: u64) -> Bytes {
    Bytes::from(format!("chaos-object-{i}"))
}

/// Transient I/O errors at `rate` on each of `n` nodes until its op
/// counter reaches `window`, plus one silent crash per `(node, op)`.
pub fn disk_faults(
    n: usize,
    seed: u64,
    rate: f64,
    window: u64,
    crashes: &[(usize, u64)],
) -> FaultPlan {
    let mut plan = FaultPlan::uniform_io_errors(n, seed, rate);
    for spec in &mut plan.node_faults {
        spec.io_error_until_op = window;
    }
    for &(node, op) in crashes {
        plan.node_faults[node].crash_at_op = Some(op);
    }
    plan
}

/// A cut of `isolated` held from time zero until [`Drill::end_faults`]
/// heals it.
pub fn cut(isolated: Vec<u32>, direction: PartitionDirection) -> PartitionWindow {
    PartitionWindow {
        from: Duration::ZERO,
        until: Duration::MAX,
        isolated,
        direction,
    }
}

/// `cfg` with [`OP_BUDGET`] and replica breakers (four failures trip
/// one, 10 ms cooldown).
pub fn with_budget(mut cfg: ClusterConfig) -> ClusterConfig {
    cfg.op_deadline = Some(OP_BUDGET);
    cfg.breaker = Some(BreakerConfig {
        failure_threshold: 4,
        cooldown: Duration::from_millis(10),
    });
    cfg
}

/// A schedule entry, run before the write with its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Resize to this many active servers.
    Resize(usize),
    /// Advance the virtual clock, which timed partition windows run on.
    Advance(Duration),
}

/// One drill: the cluster to build and the writes to make.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The cluster's configuration.
    pub cfg: ClusterConfig,
    /// The faults it runs.
    pub plan: FaultPlan,
    /// Oids `0..objects` are written in order.
    pub objects: u64,
    /// `(write index, step)`, sorted by index; index `objects` runs after
    /// the last write.
    pub schedule: Vec<(u64, Step)>,
    /// Maintenance-assisted writes: a failed put gets crash detection
    /// plus repair and up to two more tries, a failed read-back one more
    /// try, and every write is followed by crash detection.
    pub maintain: bool,
    /// Read every acked write back at once and assert its value.
    pub read_back: bool,
}

/// A built scenario: the cluster and the clock it runs on.
pub struct Drill {
    /// The cluster under test.
    pub cluster: Arc<Cluster>,
    /// The clock its faults and budgets run on.
    pub clock: Arc<VirtualClock>,
}

/// What a drill saw, filled in stage by stage.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Acked oids, in write order.
    pub acked: Vec<u64>,
    /// Writes refused after every try.
    pub failed: u64,
    /// The most virtual time one failed write spent, retries included.
    pub slowest_failure: Duration,
    /// Counters once every fault window closed, before convergence.
    pub faulted: CounterSnapshot,
    /// Acked oids that no longer read back as written.
    pub lost: Vec<u64>,
    /// Counters after the final reads.
    pub counters: CounterSnapshot,
    /// [`Cluster::under_replicated`] at the end.
    pub under_replicated: usize,
    /// [`Cluster::dirty_len`] at the end.
    pub dirty_entries: usize,
}

impl Outcome {
    /// Every acked write survived, the dirty table drained and
    /// replication is whole again.
    pub fn assert_survived(&self) {
        assert_eq!(self.lost, Vec::<u64>::new(), "acked writes lost");
        assert_eq!(self.dirty_entries, 0, "dirty table drains at full power");
        assert_eq!(self.under_replicated, 0, "replication fully restored");
    }
}

impl Scenario {
    /// The paper's ten servers at r = 3 running `plan`: bare puts of
    /// `objects` oids, no schedule, no read-back.
    pub fn r3(plan: FaultPlan, objects: u64) -> Self {
        let mut cfg = ClusterConfig::paper();
        cfg.replicas = 3;
        Scenario {
            cfg,
            plan,
            objects,
            schedule: Vec::new(),
            maintain: false,
            read_back: false,
        }
    }

    /// A fault-free cluster small enough to explore exhaustively, the
    /// one the model checker's scenarios start from: `servers` nodes at
    /// `replicas` under `strategy`, layout base 64, two kv shards and
    /// one-task drain batches. Nothing is written.
    pub fn model(servers: usize, replicas: usize, strategy: Strategy) -> Self {
        let cfg = ClusterConfig {
            servers,
            replicas,
            layout_base: 64,
            strategy,
            kv_shards: 2,
            reintegration_batch: 1,
            ..ClusterConfig::paper()
        };
        Scenario {
            cfg,
            ..Scenario::r3(FaultPlan::default(), 0)
        }
    }

    /// The cluster, running the plan on a fresh virtual clock.
    pub fn build(&self) -> Drill {
        let clock = Arc::new(VirtualClock::new());
        let cluster = Cluster::with_faults(self.cfg.clone(), self.plan.clone(), clock.clone());
        Drill { cluster, clock }
    }

    /// Build, write, end the faults, converge, and check survival.
    pub fn run(&self) -> (Drill, Outcome) {
        let drill = self.build();
        let mut out = drill.write(self);
        drill.end_faults(&mut out);
        drill.converge();
        drill.survival(&mut out);
        (drill, out)
    }
}

impl Drill {
    /// The write phase: oids `0..objects`, the schedule's steps between.
    pub fn write(&self, sc: &Scenario) -> Outcome {
        let c = &self.cluster;
        let mut out = Outcome::default();
        let mut steps = sc.schedule.iter().peekable();
        for i in 0..=sc.objects {
            while let Some((_, step)) = steps.next_if(|(at, _)| *at == i) {
                match *step {
                    Step::Resize(n) => {
                        c.resize(n);
                    }
                    Step::Advance(d) => self.clock.advance(d),
                }
            }
            if i == sc.objects {
                break;
            }
            let t0 = self.clock.now();
            if let Some(p) = self.put(i, sc.maintain) {
                // The paper's first invariant, on disk: an acked write
                // has its primary replica.
                let primary = p.servers()[p.primary_slot()];
                let held = c.nodes()[primary.index()].holds(ObjectId(i));
                assert!(held, "acked object {i} is not on its primary {primary}");
                out.acked.push(i);
                if sc.read_back {
                    self.read_back(i, sc.maintain);
                }
            } else {
                out.failed += 1;
                let spent = self.clock.now().saturating_sub(t0);
                out.slowest_failure = out.slowest_failure.max(spent);
            }
            if sc.maintain && !c.detect_and_mark_crashed().is_empty() {
                c.repair();
            }
        }
        assert!(
            steps.next().is_none(),
            "schedule not sorted or past `objects`"
        );
        out
    }

    /// Fix membership and re-replicate, as a coordinator does after a
    /// failure that may mean a silent crash.
    fn maintain(&self) {
        self.cluster.detect_and_mark_crashed();
        self.cluster.repair();
    }

    /// Write oid `i`; returns its placement if it was acked.
    fn put(&self, i: u64, maintain: bool) -> Option<Placement> {
        (0..if maintain { 3 } else { 1 }).find_map(|attempt| {
            if attempt > 0 {
                self.maintain();
            }
            self.cluster.put(ObjectId(i), value(i)).ok()
        })
    }

    /// Read-your-write: an acked put reads back at once, faults
    /// notwithstanding.
    fn read_back(&self, i: u64, maintain: bool) {
        let mut got = self.cluster.get(ObjectId(i));
        if got.is_err() && maintain {
            self.maintain();
            got = self.cluster.get(ObjectId(i));
        }
        assert_eq!(got.ok(), Some(value(i)), "read-back of acked object {i}");
    }

    /// Tick every node through its fault window (op counters are the
    /// fault clock), firing any crash the writes did not reach; then heal
    /// the partitions and wait out the breaker cooldown, since the
    /// virtual clock moves only when something sleeps and a breaker
    /// fast-fail does not. Records the counters at that point.
    pub fn end_faults(&self, out: &mut Outcome) {
        let c = &self.cluster;
        if let Some(inj) = c.fault_injector() {
            let specs = inj.plan().node_faults.iter();
            for (i, (node, spec)) in c.nodes().iter().zip(specs).enumerate() {
                // A window that never closes cannot be drained.
                let io = Some(spec.io_error_until_op).filter(|&op| op < u64::MAX);
                let window = io.unwrap_or(0).max(spec.crash_at_op.map_or(0, |op| op + 1));
                while inj.node_ops(i) < window {
                    let _ = node.get(ObjectId(u64::MAX));
                }
            }
        }
        if let Some(fabric) = c.net_fabric() {
            fabric.heal_partitions();
            if let Some(breaker) = c.config().breaker {
                self.clock.advance(breaker.cooldown * 2);
            }
        }
        out.faulted = c.counters();
    }

    /// Fix membership, re-replicate, return to full power, drain the
    /// dirty table and re-replicate again; repeated while dirty entries
    /// or under-replicated objects remain, at most [`MAX_PASSES`] times.
    /// Returns the passes made.
    pub fn converge(&self) -> usize {
        let c = &self.cluster;
        for pass in 1..=MAX_PASSES {
            self.maintain();
            c.resize(c.config().servers);
            c.repair();
            c.reintegrate_all();
            c.repair();
            if c.dirty_len() == 0 && c.under_replicated() == 0 {
                return pass;
            }
        }
        MAX_PASSES
    }

    /// The survival check: read every acked write back, then take the
    /// counters, replication and dirty-table state.
    pub fn survival(&self, out: &mut Outcome) {
        let c = &self.cluster;
        out.lost = out
            .acked
            .iter()
            .copied()
            .filter(|&i| c.get(ObjectId(i)).ok() != Some(value(i)))
            .collect();
        out.counters = c.counters();
        out.under_replicated = c.under_replicated();
        out.dirty_entries = c.dirty_len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault_free(servers: usize, objects: u64) -> Scenario {
        let mut sc = Scenario::r3(FaultPlan::default(), objects);
        (sc.cfg.servers, sc.cfg.replicas, sc.read_back) = (servers, 2, true);
        sc
    }

    /// One pass drains a size-down's dirty entries, and a quiescent
    /// cluster stops after the first pass: the `ech chaos` transcripts
    /// rely on exactly one.
    #[test]
    fn converge_stops_after_the_first_pass_once_quiescent() {
        let mut sc = fault_free(10, 40);
        sc.schedule = vec![(20, Step::Resize(5))];
        let drill = sc.build();
        let mut out = drill.write(&sc);
        assert!(drill.cluster.dirty_len() > 0, "offloaded writes are logged");
        assert_eq!(drill.converge(), 1);
        assert_eq!(drill.converge(), 1);
        drill.survival(&mut out);
        out.assert_survived();
    }

    /// Lost data keeps objects under-replicated: converge stops at its
    /// bound and the survival check reports the loss.
    #[test]
    fn converge_is_bounded_and_loss_is_reported() {
        let sc = fault_free(2, 10);
        let drill = sc.build();
        let mut out = drill.write(&sc);
        for node in drill.cluster.nodes() {
            drill.cluster.crash_node(node.id());
        }
        assert_eq!(drill.converge(), MAX_PASSES);
        drill.survival(&mut out);
        assert_eq!((out.lost.len(), out.under_replicated), (10, 10));
    }
}
