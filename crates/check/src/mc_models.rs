//! Model-checker scenarios for the cluster's concurrency protocols.
//!
//! Each model is a small concurrent scenario built from the *real*
//! data-path code — `Cluster`, `ShardedPlacementCache`, `ArcSwap` — with
//! the `modelcheck` feature routing their internals through the
//! instrumented sync facade. The explorer (`ech-modelcheck`) then
//! enumerates thread interleavings up to a preemption bound and checks
//! both the models' own assertions and the built-in discipline rules
//! (data races, relaxed orderings on sync atomics, stale publication
//! reads, deadlocks).
//!
//! Models carry *per-mode* expectations: the deliberately seeded
//! mutants must be caught, and two of them (`weak-stop-flag-relaxed`,
//! `weak-view-publish-relaxed`) are invisible to sequentially
//! consistent exploration by construction — a `Relaxed` publication
//! only misbehaves when a store buffer can delay it, so they are
//! expected to be caught under `--weak` and to pass without it. That
//! asymmetry is the point: it proves the weak mode finds real bugs the
//! default mode provably cannot.
//!
//! The message-scheduler mode (`--msg`) has the same structure one
//! layer down: the `msg-*` models route every `Cluster::rpc` send
//! through the explorer, which enumerates per-message fates (delivered,
//! dropped request, dropped ack, duplicate, reordered, partition edges)
//! under the model's fault budget. Their `-bug` twins are mutants whose
//! misbehaviour *requires* a message fault — a retransmission, a lost
//! ack, a tripped breaker — so thread-only exploration passes them
//! exhaustively and only `--msg` catches them. Each model also declares
//! the preemption bound and fault budget it wants explored, so the CI
//! sweep pays for depth only where a scenario needs it.
//!
//! The models live in the CLI (not in `ech-modelcheck`) because they
//! sit at the top of the dependency graph: the checker crate must stay
//! dependency-free so every layer below can link against it.

use arc_swap::ArcSwap;
use bytes::Bytes;
use ech_cluster::cluster::{Cluster, ClusterConfig, ClusterError};
use ech_cluster::fault::{FaultPlan, NodeFaultSpec, VirtualClock};
use ech_cluster::mutation::Mutation;
use ech_cluster::net::BreakerConfig;
use ech_cluster::retry::RetryPolicy;
use ech_core::cache::ShardedPlacementCache;
use ech_core::engine::EngineKind;
use ech_core::ids::ObjectId;
use ech_core::layout::Layout;
use ech_core::placement::Strategy;
use ech_core::view::ClusterView;
use ech_modelcheck::Env;
use std::sync::Arc;
use std::time::Duration;

/// One registered model-checking scenario.
pub struct Model {
    /// Stable name (also the trace prefix for `--replay`).
    pub name: &'static str,
    /// One-line description for the report.
    pub about: &'static str,
    /// True when sequentially consistent exploration is *expected* to
    /// find a failing schedule (a deliberately seeded bug), and not
    /// finding one is the error.
    pub expect_failure: bool,
    /// Same expectation under the weak-memory (`--weak`) mode. Weak-only
    /// mutants set this without `expect_failure`: their bug is a
    /// `Relaxed` publication only a store buffer can delay.
    pub expect_failure_weak: bool,
    /// Additional expectation under the message-scheduler (`--msg`)
    /// mode. Message-only mutants set this alone: their bug needs a
    /// retransmission or a lost message that thread-only exploration
    /// cannot produce, so they pass exhaustively without `--msg`.
    pub expect_failure_msg: bool,
    /// Additional expectation under the linearizability-history mode
    /// (`--lincheck`). Lincheck-only mutants set this alone: their bug
    /// corrupts no state an in-model assertion could observe — only the
    /// caller-visible *order* of operations — so every other mode
    /// passes them exhaustively and only the recorded history convicts
    /// them.
    pub expect_failure_lincheck: bool,
    /// Rule D9 pairing: every correct protocol names the seeded mutant
    /// that proves its failure mode is detectable, and every mutant
    /// names the correct twin it was derived from. Pairs are
    /// role-opposed (safe ↔ mutant), not necessarily unique.
    #[expect(
        dead_code,
        reason = "the analyzer's D9 reads pairs from this table's source text"
    )]
    pub pair: &'static str,
    /// Preemption bound the sweep explores this model at (the `--bound`
    /// flag overrides it for the whole run).
    pub bound: usize,
    /// Message-fault budget the explorer rations in `--msg` mode (the
    /// `--msg-budget` flag overrides it). Zero keeps the model
    /// thread-only even under `--msg` — the right default for the
    /// memory-protocol models, whose schedule spaces would otherwise
    /// multiply by seven fates per rpc for no new coverage.
    pub msg_budget: usize,
    /// The one production decision this scenario flips
    /// ([`Cluster::install_mutation`]): `Some` on exactly the seeded
    /// mutants, so rule D9's model ↔ mutant pairing extends to model ↔
    /// decision point.
    pub mutation: Option<Mutation>,
    /// Scenario builder, handed [`Model::mutation`]. A mutant whose
    /// scenario is its safe twin's shares the twin's builder.
    pub setup: fn(&mut Env, Option<Mutation>),
}

impl Model {
    /// Build the scenario for one schedule (what the explorer runs).
    pub fn build(&self, env: &mut Env) {
        (self.setup)(env, self.mutation);
    }

    /// The expectation that applies under the given memory mode.
    fn expects_failure(&self, weak: bool) -> bool {
        if weak {
            self.expect_failure_weak
        } else {
            self.expect_failure
        }
    }

    /// The expectation that applies under the given memory mode *and*
    /// message mode. Message faults only add schedules — the fault-free
    /// branch is always explored — so a mutant caught without `--msg`
    /// stays caught with it.
    pub fn expects_failure_in(&self, weak: bool, msg: bool) -> bool {
        self.expects_failure(weak) || (msg && self.expect_failure_msg)
    }

    /// A mutant only the weak-memory mode can catch.
    pub fn weak_only(&self) -> bool {
        self.expect_failure_weak && !self.expect_failure
    }

    /// The expectation that applies under the given memory, message and
    /// lincheck modes. A lincheck violation is an operation-order bug,
    /// not a memory-model bug, so its expectation is mode-independent:
    /// a history mutant stays caught under `--weak` and `--msg` too.
    pub fn expects_failure_with(&self, weak: bool, msg: bool, lincheck: bool) -> bool {
        self.expects_failure_in(weak, msg) || (lincheck && self.expect_failure_lincheck)
    }

    /// A mutant only the message-scheduler mode can catch.
    pub fn msg_only(&self) -> bool {
        self.expect_failure_msg && !self.expect_failure && !self.expect_failure_weak
    }

    /// A mutant only the lincheck history checker can catch.
    pub fn lincheck_only(&self) -> bool {
        self.expect_failure_lincheck
            && !self.expect_failure
            && !self.expect_failure_weak
            && !self.expect_failure_msg
    }
}

fn no_scenario(_: &mut Env, _: Option<Mutation>) {}

/// Placeholder for the strings every row overrides (a constant, not a
/// literal: analyzer rule D9 reads every literal `name:` in this file
/// as a table row).
const UNSET: &str = "";

/// What a table row leaves unsaid: a safe, thread-only scenario explored
/// at preemption bound 2. A row states its identity and whatever makes
/// it differ — for a mutant, the modes that must catch it and the
/// decision it flips.
const SAFE: Model = Model {
    name: UNSET,
    about: UNSET,
    expect_failure: false,
    expect_failure_weak: false,
    expect_failure_msg: false,
    expect_failure_lincheck: false,
    pair: UNSET,
    bound: 2,
    msg_budget: 0,
    mutation: None,
    setup: no_scenario,
};

/// All registered models, in report order: correct protocols first,
/// then the seeded mutants (which every run must *catch*), with the
/// weak-only mutants last.
pub const MODELS: &[Model] = &[
    Model {
        name: "publish-vs-read",
        about: "resize publishes a view while a reader resolves the same object",
        pair: "seeded-stamp-bug",
        // Bounds 4 (up from 2 pre-reduction): the partial-order
        // reduction prunes enough equivalent schedules that the deeper
        // sweep stays cheaper than the old bound-2 brute force.
        bound: 4,
        setup: publish_vs_read,
        ..SAFE
    },
    Model {
        name: "cache-coherence",
        about: "placement cache consulted across a concurrent view publication",
        pair: "weak-view-publish-relaxed",
        // Raised 2 → 4 alongside publish-vs-read; see that model.
        bound: 4,
        setup: cache_coherence,
        ..SAFE
    },
    Model {
        name: "reintegrate-vs-resize",
        about: "selective re-integration racing a power-up resize",
        pair: "reintegration-lost-replica-bug",
        setup: reintegrate_vs_resize,
        ..SAFE
    },
    Model {
        name: "cache-counters",
        about: "hit/miss pair stays coherent under concurrent lookups",
        pair: "weak-view-publish-relaxed",
        setup: cache_counters,
        ..SAFE
    },
    Model {
        name: "quorum-write-faults",
        about: "quorum write racing a reader while a secondary injects I/O errors",
        pair: "quorum-dirty-bug",
        setup: quorum_write_faults,
        ..SAFE
    },
    Model {
        name: "partition-quorum",
        about: "quorum write degrades under an asymmetric partition, heals after it lifts",
        pair: "partition-quorum-bug",
        setup: partition_quorum,
        ..SAFE
    },
    Model {
        name: "read-crash",
        about: "read racing a crash of the primary replica it probes first",
        pair: "stale-read-bug",
        setup: read_crash,
        ..SAFE
    },
    Model {
        name: "worker-stop-flag",
        about: "background-worker stop flag handshake (Release/Acquire)",
        pair: "weak-stop-flag-relaxed",
        setup: worker_stop_flag,
        ..SAFE
    },
    Model {
        name: "reintegration-pool",
        about: "two re-integration workers draining the same dirty table",
        pair: "reintegration-lost-replica-bug",
        setup: reintegration_pool,
        ..SAFE
    },
    Model {
        name: "batched-drain-vs-put",
        about: "batched re-integration drain racing an independent client write",
        pair: "lin-ack-before-log-bug",
        setup: batched_drain_vs_put,
        ..SAFE
    },
    Model {
        name: "seeded-stamp-bug",
        about: "seeded stamp-before-copy re-integration (must be caught)",
        expect_failure: true,
        expect_failure_weak: true,
        pair: "publish-vs-read",
        mutation: Some(Mutation::StampBeforeCopy),
        setup: seeded_stamp_bug,
        ..SAFE
    },
    Model {
        name: "quorum-dirty-bug",
        about: "seeded quorum ack without a dirty entry (must be caught)",
        expect_failure: true,
        expect_failure_weak: true,
        pair: "quorum-write-faults",
        mutation: Some(Mutation::SkipDirtyLog),
        setup: quorum_write_faults,
        ..SAFE
    },
    Model {
        name: "partition-quorum-bug",
        about: "seeded partitioned-quorum ack without a dirty entry (must be caught)",
        expect_failure: true,
        expect_failure_weak: true,
        pair: "partition-quorum",
        mutation: Some(Mutation::SkipDirtyLog),
        setup: partition_quorum,
        ..SAFE
    },
    Model {
        name: "stale-read-bug",
        about: "seeded version-check bypass leaks a stale replica (must be caught)",
        expect_failure: true,
        expect_failure_weak: true,
        pair: "read-crash",
        mutation: Some(Mutation::AcceptStale),
        setup: stale_read_bug,
        ..SAFE
    },
    Model {
        name: "reintegration-lost-replica-bug",
        about: "seeded remove-before-copy move loses the replica (must be caught)",
        expect_failure: true,
        expect_failure_weak: true,
        pair: "reintegrate-vs-resize",
        mutation: Some(Mutation::RemoveBeforeCopy),
        setup: reintegration_lost_replica_bug,
        ..SAFE
    },
    Model {
        name: "weak-stop-flag-relaxed",
        about: "seeded Relaxed stop-flag store (caught only under --weak)",
        expect_failure_weak: true,
        pair: "worker-stop-flag",
        mutation: Some(Mutation::RelaxedStopFlag),
        setup: worker_stop_flag,
        ..SAFE
    },
    Model {
        name: "weak-view-publish-relaxed",
        about: "seeded Relaxed view publication (caught only under --weak)",
        expect_failure_weak: true,
        pair: "cache-coherence",
        mutation: Some(Mutation::RelaxedPublish),
        setup: weak_view_publish_relaxed,
        ..SAFE
    },
    Model {
        name: "msg-quorum-ack-loss",
        about: "quorum write stays self-healing under every enumerated ack loss",
        pair: "msg-quorum-ack-loss-bug",
        bound: 1,
        msg_budget: 1,
        setup: msg_quorum_ack_loss,
        ..SAFE
    },
    Model {
        name: "msg-breaker-probe",
        about: "breaker trips on enumerated faults, probes half-open, recovers",
        pair: "msg-breaker-notfound-bug",
        bound: 1,
        // Stays at 2 post-reduction, deliberately: the partial-order
        // reduction prunes *order* nondeterminism, and this model is a
        // single thread whose fate decisions are fixed in program order
        // — its schedule space is pure value nondeterminism (which
        // fault hits which message), so a deeper budget grows the sweep
        // ~8× with nothing for the reduction to prune. The reclaimed
        // budget is spent on the thread dimension instead
        // (publish-vs-read and cache-coherence at bound 4).
        msg_budget: 2,
        setup: msg_breaker_probe,
        ..SAFE
    },
    Model {
        name: "msg-dup-idempotence",
        about: "duplicate delivery of a quorum write is harmless (puts overwrite)",
        pair: "msg-dup-append-bug",
        bound: 1,
        msg_budget: 1,
        setup: msg_dup_idempotence,
        ..SAFE
    },
    Model {
        name: "msg-quorum-ack-loss-bug",
        about: "seeded unlogged degraded ack under message loss (caught only under --msg)",
        expect_failure_msg: true,
        pair: "msg-quorum-ack-loss",
        bound: 1,
        msg_budget: 1,
        mutation: Some(Mutation::SkipDirtyLog),
        setup: msg_quorum_ack_loss,
        ..SAFE
    },
    Model {
        name: "msg-breaker-notfound-bug",
        about: "seeded breaker-as-NotFound read misclassification (caught only under --msg)",
        expect_failure_msg: true,
        pair: "msg-breaker-probe",
        bound: 1,
        msg_budget: 1,
        mutation: Some(Mutation::BreakerIsAuthoritative),
        setup: msg_breaker_notfound_bug,
        ..SAFE
    },
    Model {
        name: "msg-dup-append-bug",
        about: "seeded non-idempotent append doubled by a retransmission (caught only under --msg)",
        expect_failure_msg: true,
        pair: "msg-dup-idempotence",
        bound: 1,
        msg_budget: 1,
        mutation: Some(Mutation::AppendOnStore),
        setup: msg_dup_idempotence,
        ..SAFE
    },
    Model {
        name: "lin-ack-before-log-bug",
        about: "seeded ack-before-durable-write (caught only under --lincheck)",
        expect_failure_lincheck: true,
        pair: "quorum-write-faults",
        mutation: Some(Mutation::AckBeforeWrite),
        setup: lin_ack_before_log_bug,
        ..SAFE
    },
    Model {
        name: "lin-stale-read-bug",
        about: "seeded acceptance bypass serves a superseded replica (caught only under --lincheck)",
        expect_failure_lincheck: true,
        pair: "read-crash",
        mutation: Some(Mutation::AcceptStale),
        setup: lin_stale_read_bug,
        ..SAFE
    },
    Model {
        name: "lin-heal-restamp-bug",
        about: "seeded heal-pass header downgrade re-admits a stale copy (caught only under --lincheck)",
        expect_failure_lincheck: true,
        pair: "partition-quorum",
        mutation: Some(Mutation::RestampDownOnHeal),
        setup: lin_heal_restamp_bug,
        ..SAFE
    },
];

/// Look a model up by name.
pub fn find(name: &str) -> Option<&'static Model> {
    MODELS.iter().find(|m| m.name == name)
}

/// A three-node, two-replica cluster small enough to explore
/// exhaustively, on a virtual clock so retry backoff costs no wall
/// time. The empty fault plan injects nothing; it exists only to carry
/// the clock.
fn tiny_cluster() -> Arc<Cluster> {
    tiny_cluster_with(3, 2, Strategy::Primary, FaultPlan::default())
}

/// [`tiny_cluster`] with the knobs the fault-aware models vary. The
/// single-replica mutants use [`Strategy::Original`]: under the primary
/// strategy the first replica is pinned to the (single) primary server,
/// so a one-replica placement could never migrate.
fn tiny_cluster_with(
    servers: usize,
    replicas: usize,
    strategy: Strategy,
    plan: FaultPlan,
) -> Arc<Cluster> {
    let cfg = tiny_config(servers, replicas, strategy);
    Cluster::with_faults(cfg, plan, Arc::new(VirtualClock::new()))
}

/// The configuration every model cluster starts from.
fn tiny_config(servers: usize, replicas: usize, strategy: Strategy) -> ClusterConfig {
    ClusterConfig {
        servers,
        replicas,
        layout_base: 64,
        strategy,
        // Models replay pinned schedules on the ring engine, so traces
        // are byte-identical.
        placement: EngineKind::Ring,
        kv_shards: 2,
        capacity_plan: None,
        retry: RetryPolicy::default(),
        cache_capacity: 64,
        cache_shards: 2,
        reintegration_batch: 1,
        migration_rate: None,
        op_deadline: None,
        breaker: None,
    }
}

/// Turn `c` into the seeded mutant the model declares (the safe twin
/// passes `None` and runs the shipped code untouched).
fn mutant(c: Arc<Cluster>, mutation: Option<Mutation>) -> Arc<Cluster> {
    if let Some(m) = mutation {
        c.install_mutation(m);
    }
    c
}

/// A standalone view mirroring [`tiny_cluster_with`]'s geometry, for
/// computing placements during setup (the checker gives models no
/// cluster-internal access). Matches the cluster's layout choice:
/// equal-work for the primary strategy, uniform for original hashing.
fn mirror_view(servers: usize, replicas: usize, strategy: Strategy) -> ClusterView {
    let layout = match strategy {
        Strategy::Primary => Layout::equal_work(servers, 64),
        Strategy::Original => Layout::uniform(servers, 64),
    };
    ClusterView::new(layout, strategy, replicas)
}

const OID: ObjectId = ObjectId(7);
const OID2: ObjectId = ObjectId(11);
const OID3: ObjectId = ObjectId(13);
const PAYLOAD: &[u8] = b"model-payload";
const PAYLOAD2: &[u8] = b"model-payload-v2";

/// A resize must never make a committed object unreadable: the reader
/// may pin the old or the new epoch mid-publication, and either way the
/// header → view → placement chain must resolve to a live replica
/// (`PlacementError::UnknownVersion` stays internal, absorbed by the
/// header-version fallback).
fn publish_vs_read(env: &mut Env, _: Option<Mutation>) {
    let c = tiny_cluster();
    c.put(OID, Bytes::copy_from_slice(PAYLOAD))
        .expect("setup write at full power");
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            c.resize(2);
        });
    }
    env.spawn(move || {
        let got = c.get(OID);
        match got {
            Ok(data) => assert_eq!(&data[..], PAYLOAD, "read returned wrong bytes"),
            Err(e) => panic!("read during resize failed: {e}"),
        }
    });
}

/// The sharded cache must never serve a placement that disagrees with
/// the view the reader pinned — entries are immutable per
/// `(object, version)`, so a concurrent publication (which changes the
/// current version) must route the reader to different cache keys, not
/// to stale values.
fn cache_coherence(env: &mut Env, _: Option<Mutation>) {
    let view0 = ClusterView::new(Layout::equal_work(3, 64), Strategy::Primary, 2);
    let swap = Arc::new(ArcSwap::from_pointee(view0));
    let cache = Arc::new(ShardedPlacementCache::new(64, 2));
    {
        let swap = Arc::clone(&swap);
        env.spawn(move || {
            let mut next = ClusterView::clone(&swap.load());
            next.resize(2);
            swap.store(Arc::new(next));
        });
    }
    env.spawn(move || {
        for oid in [3u64, 9] {
            let view = swap.load();
            let got = cache
                .place_current(&view, ObjectId(oid))
                .expect("placement at a pinned epoch");
            let want = view
                .place_current(ObjectId(oid))
                .expect("direct placement at the same epoch");
            assert_eq!(got, want, "stale placement served across a publish");
        }
    });
}

/// Selective re-integration racing the power-up it reacts to: no
/// interleaving may lose the dirty object or leave the table dirty
/// after a full drain at full power.
fn reintegrate_vs_resize(env: &mut Env, _: Option<Mutation>) {
    let c = tiny_cluster();
    c.resize(2);
    c.put(OID, Bytes::copy_from_slice(PAYLOAD))
        .expect("setup write at reduced power");
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            c.resize(3);
        });
    }
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            for _ in 0..2 {
                let _ = c.reintegrate_batch(1);
            }
        });
    }
    env.after(move || {
        while c.reintegrate_batch(1).is_ok() {}
        assert!(c.dirty_len() == 0, "dirty table not drained at full power");
        let got = c.get(OID);
        match got {
            Ok(data) => assert_eq!(&data[..], PAYLOAD, "read returned wrong bytes"),
            Err(e) => panic!("object lost across reintegration/resize race: {e}"),
        }
    });
}

/// The packed hit/miss counter pair: a snapshot taken at *any* point
/// must be a state the lookup sequence actually passed through. The
/// setup performs one miss, the worker a hit then a miss, so the only
/// reachable pairs are (0,1) → (1,1) → (1,2). Split counters read with
/// two loads could surface the impossible (0,2).
fn cache_counters(env: &mut Env, _: Option<Mutation>) {
    let view = Arc::new(ClusterView::new(
        Layout::equal_work(3, 64),
        Strategy::Primary,
        2,
    ));
    let cache = Arc::new(ShardedPlacementCache::new(64, 2));
    cache
        .place_current(&view, ObjectId(1))
        .expect("setup lookup");
    {
        let view = Arc::clone(&view);
        let cache = Arc::clone(&cache);
        env.spawn(move || {
            cache.place_current(&view, ObjectId(1)).expect("hit lookup");
            cache
                .place_current(&view, ObjectId(2))
                .expect("miss lookup");
        });
    }
    env.spawn(move || {
        let s = cache.snapshot();
        assert!(
            matches!((s.hits, s.misses), (0, 1) | (1, 1) | (1, 2)),
            "incoherent hit/miss pair: ({}, {})",
            s.hits,
            s.misses
        );
    });
}

/// A cluster whose last-ranked secondary for [`OID`] always fails with
/// injected I/O errors, plus that secondary's index. The quorum
/// (primary + majority) tolerates exactly that one miss.
fn faulty_quorum_cluster() -> Arc<Cluster> {
    let view = mirror_view(3, 3, Strategy::Primary);
    let placement = view.place_current(OID).expect("placement at full power");
    let faulty = placement.servers()[2].index();
    let mut plan = FaultPlan {
        seed: 7,
        ..FaultPlan::default()
    };
    plan.set_node(
        faulty,
        NodeFaultSpec {
            io_error_prob: 1.0,
            ..NodeFaultSpec::default()
        },
    );
    tiny_cluster_with(3, 3, Strategy::Primary, plan)
}

/// The racing pair of the degraded-quorum scenarios: a writer whose put
/// must ack (`must_ack` says why), and a reader that may miss the object
/// but must never see wrong bytes.
fn spawn_write_and_reader(env: &mut Env, c: &Arc<Cluster>, must_ack: &'static str) {
    let writer = Arc::clone(c);
    env.spawn(move || {
        writer
            .put(OID, Bytes::copy_from_slice(PAYLOAD))
            .expect(must_ack);
    });
    let reader = Arc::clone(c);
    env.spawn(move || {
        if let Ok(data) = reader.get(OID) {
            assert_eq!(&data[..], PAYLOAD, "racing reader saw wrong bytes");
        }
    });
}

/// A quorum write under injected faults racing a reader: the ack must
/// come with a dirty entry for the missed replica (degraded writes stay
/// self-healing, §III-E), and a racing reader may miss the object but
/// must never see wrong bytes.
///
/// `quorum-dirty-bug` runs this scenario under
/// [`Mutation::SkipDirtyLog`]: the degraded ack "forgets" its
/// dirty-table entry, so every schedule violates the dirty-entry
/// assertion — the checker must catch it.
fn quorum_write_faults(env: &mut Env, mutation: Option<Mutation>) {
    let c = mutant(faulty_quorum_cluster(), mutation);
    spawn_write_and_reader(env, &c, "quorum write must ack with one secondary erroring");
    env.after(move || {
        assert!(
            c.dirty_len() >= 1,
            "degraded quorum ack left no dirty entry — missed replica is not self-healing"
        );
        let got = c.get(OID).expect("committed object must be readable");
        assert_eq!(&got[..], PAYLOAD, "read returned wrong bytes");
    });
}

/// A cluster whose last-ranked secondary for [`OID`] sits behind a
/// scripted asymmetric partition (requests into it are lost), plus that
/// secondary's index. The message-fault twin of
/// [`faulty_quorum_cluster`]: the miss comes from the network plane, not
/// the disk, so the write path must classify `Partitioned` exactly like
/// any other transient secondary failure.
fn partitioned_quorum_cluster() -> Arc<Cluster> {
    use ech_cluster::net::{NetPlan, PartitionDirection, PartitionWindow};
    let view = mirror_view(3, 3, Strategy::Primary);
    let placement = view.place_current(OID).expect("placement at full power");
    let cut = placement.servers()[2].index();
    let net = NetPlan {
        seed: 7,
        partitions: vec![PartitionWindow {
            from: Duration::ZERO,
            until: Duration::MAX, // holds until heal_partitions()
            isolated: vec![cut as u32],
            direction: PartitionDirection::Inbound,
        }],
        rpc_timeout: Duration::from_millis(2),
        ..NetPlan::default()
    };
    let plan = FaultPlan {
        seed: 7,
        net: Some(net),
        ..FaultPlan::default()
    };
    tiny_cluster_with(3, 3, Strategy::Primary, plan)
}

/// A quorum write under an active partition racing a reader: the ack
/// must degrade (dirty entry recorded for the unreachable secondary),
/// the reader must never see wrong bytes, and once the partition lifts
/// a heal-and-drain pass must fully restore replication — the model
/// form of the paper's self-healing degraded-write contract, driven by
/// message loss instead of disk faults.
///
/// `partition-quorum-bug` runs this scenario under
/// [`Mutation::SkipDirtyLog`] while the secondary is cut off: every
/// schedule violates the dirty-entry assertion, under both memory modes
/// (the bug is schedule-independent).
fn partition_quorum(env: &mut Env, mutation: Option<Mutation>) {
    let c = mutant(partitioned_quorum_cluster(), mutation);
    spawn_write_and_reader(
        env,
        &c,
        "quorum write must ack with one secondary partitioned",
    );
    env.after(move || {
        assert!(
            c.dirty_len() >= 1,
            "partitioned quorum ack left no dirty entry — missed replica is not self-healing"
        );
        c.net_fabric()
            .expect("net plan installed")
            .heal_partitions();
        c.heal_dirty();
        c.reintegrate_all();
        c.repair();
        assert_eq!(c.dirty_len(), 0, "dirty table must drain after the heal");
        assert_eq!(
            c.under_replicated(),
            0,
            "replication must be restored once the partition lifts"
        );
        let got = c.get(OID).expect("committed object must be readable");
        assert_eq!(&got[..], PAYLOAD, "read returned wrong bytes after heal");
    });
}

/// A read racing a crash of the primary replica: whichever side of the
/// crash the read's first probe lands on, the surviving secondary must
/// serve the committed bytes.
fn read_crash(env: &mut Env, _: Option<Mutation>) {
    let c = tiny_cluster();
    // An object whose primary sits in slot 0, the replica `get` probes
    // first, so the crash can land under the read's first probe.
    let view = mirror_view(3, 2, Strategy::Primary);
    let (oid, placement) = (0..64)
        .map(ObjectId)
        .filter_map(|o| Some((o, view.place_current(o).ok()?)))
        .find(|(_, p)| view.layout().is_primary(p.servers()[0]))
        .expect("some object places a primary server in slot 0");
    let primary = placement.servers()[0];
    assert_eq!(
        placement.primary_slot(),
        0,
        "Algorithm 1 filled slot 0 with the primary"
    );
    assert_eq!(
        placement
            .primary_replicas(view.layout())
            .collect::<Vec<_>>(),
        [primary],
        "the crashed server is the object's one primary replica"
    );
    c.put(oid, Bytes::copy_from_slice(PAYLOAD))
        .expect("setup write at full power");
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            c.nodes()[primary.index()].crash();
        });
    }
    env.spawn(move || match c.get(oid) {
        Ok(data) => assert_eq!(&data[..], PAYLOAD, "read returned wrong bytes"),
        Err(e) => panic!("read lost the object to a single crash: {e}"),
    });
}

/// The single-replica cluster [`stale_copy_setup`] runs on.
fn stale_copy_cluster() -> Arc<Cluster> {
    tiny_cluster_with(3, 1, Strategy::Original, FaultPlan::default())
}

/// Single-replica geometry whose stale copy survives a rewrite: the
/// object's placement at full power is node 2, at two active servers it
/// moves elsewhere. Returns the object and the index holding the fresh
/// copy after the rewrite.
fn stale_copy_setup(c: &Arc<Cluster>) -> (ObjectId, usize) {
    let full = mirror_view(3, 1, Strategy::Original);
    let mut reduced = mirror_view(3, 1, Strategy::Original);
    reduced.resize(2);
    let oid = (0..64)
        .map(ObjectId)
        .find(|&o| {
            full.place_current(o)
                .is_ok_and(|p| p.servers()[0].index() == 2)
        })
        .expect("some object maps to server 2 at full power");
    let fresh = reduced
        .place_current(oid)
        .expect("placement at reduced power")
        .servers()[0]
        .index();
    c.put(oid, Bytes::copy_from_slice(PAYLOAD))
        .expect("setup write at full power");
    c.resize(2);
    c.put(oid, Bytes::copy_from_slice(PAYLOAD2))
        .expect("rewrite at reduced power");
    c.resize(3);
    (oid, fresh)
}

/// Seeded mutant of the read: the version-acceptance check is bypassed
/// ([`Mutation::AcceptStale`]), so the superseded replica the rewrite
/// left behind escapes to the reader — racing the crash of the fresh
/// copy only widens the window. The checker must catch the stale
/// payload.
fn stale_read_bug(env: &mut Env, mutation: Option<Mutation>) {
    let c = mutant(stale_copy_cluster(), mutation);
    let (oid, fresh) = stale_copy_setup(&c);
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            c.nodes()[fresh].crash();
        });
    }
    env.spawn(move || {
        if let Ok(data) = c.get(oid) {
            assert!(
                &data[..] == PAYLOAD2,
                "stale replica escaped to a reader: got {:?}",
                String::from_utf8_lossy(&data)
            );
        }
    });
}

/// The background worker's stop handshake: a `Release` store of the
/// stop flag must be visible to the worker's `Acquire` poll — and to
/// anyone after the threads have joined — under every interleaving and
/// both memory modes.
///
/// `weak-stop-flag-relaxed` runs this scenario under
/// [`Mutation::RelaxedStopFlag`]. Sequentially consistent exploration
/// applies the `Relaxed` store immediately and passes every schedule;
/// only the weak mode can leave it in the store buffer and show the
/// worker (and the post-join observer) a stale `false` — the
/// stale-publication counterexample.
fn worker_stop_flag(env: &mut Env, mutation: Option<Mutation>) {
    let c = mutant(tiny_cluster(), mutation);
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            c.stop_background_worker();
        });
    }
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            // One bounded worker-loop iteration: poll the flag, drain a
            // step when not yet stopped (idle here — nothing is dirty).
            if !c.stop_requested() {
                let _ = c.reintegrate_batch(1);
            }
        });
    }
    env.after(move || {
        assert!(
            c.stop_requested(),
            "stop request never became visible (stale Relaxed publication)"
        );
    });
}

/// Two re-integration workers draining the same dirty table after a
/// power-up: planning is serialized by the engine lock, execution
/// races, and no interleaving may lose an object, double-move it into
/// inconsistency, or leave the table dirty after a full drain.
fn reintegration_pool(env: &mut Env, _: Option<Mutation>) {
    let c = tiny_cluster();
    c.resize(2);
    c.put(OID, Bytes::copy_from_slice(PAYLOAD))
        .expect("setup write at reduced power");
    c.put(OID2, Bytes::copy_from_slice(PAYLOAD2))
        .expect("second setup write at reduced power");
    c.resize(3);
    for _ in 0..2 {
        let c = Arc::clone(&c);
        env.spawn(move || {
            let _ = c.reintegrate_batch(1);
        });
    }
    env.after(move || {
        c.reintegrate_all();
        assert!(c.dirty_len() == 0, "dirty table not drained by the pool");
        for (oid, want) in [(OID, PAYLOAD), (OID2, PAYLOAD2)] {
            match c.get(oid) {
                Ok(data) => assert_eq!(&data[..], want, "read returned wrong bytes"),
                Err(e) => panic!("object lost by the re-integration pool: {e}"),
            }
        }
    });
}

/// One `reintegrate_batch(2)` call — two plan-then-execute rounds of the
/// one drain loop, each planning under the engine lock — racing an
/// independent client write to a *third* object. No interleaving may
/// lose a dirty entry, cross-contaminate payloads, or leave the table
/// dirty after a full drain at full power.
fn batched_drain_vs_put(env: &mut Env, _: Option<Mutation>) {
    let c = tiny_cluster();
    c.resize(2);
    c.put(OID, Bytes::copy_from_slice(PAYLOAD))
        .expect("setup write at reduced power");
    c.put(OID2, Bytes::copy_from_slice(PAYLOAD2))
        .expect("second setup write at reduced power");
    c.resize(3);
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            let _ = c.reintegrate_batch(2);
        });
    }
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            c.put(OID3, Bytes::copy_from_slice(PAYLOAD))
                .expect("independent write at full power");
        });
    }
    env.after(move || {
        c.reintegrate_all();
        assert!(
            c.dirty_len() == 0,
            "dirty table not drained after the batch"
        );
        for (oid, want) in [(OID, PAYLOAD), (OID2, PAYLOAD2), (OID3, PAYLOAD)] {
            match c.get(oid) {
                Ok(data) => assert_eq!(&data[..], want, "read returned wrong bytes"),
                Err(e) => panic!("object lost across batched drain/put race: {e}"),
            }
        }
    });
}

/// Seeded mutant of the re-integration move: remove-before-copy
/// ([`Mutation::RemoveBeforeCopy`]) racing a power-down resize. In the window between the remove and the copy the
/// destination powers off, the copy fails, and the only replica is
/// gone. The checker must find that interleaving.
fn reintegration_lost_replica_bug(env: &mut Env, mutation: Option<Mutation>) {
    let c = mutant(
        tiny_cluster_with(2, 1, Strategy::Original, FaultPlan::default()),
        mutation,
    );
    // An object whose placement at two active servers is node 1: written
    // while only node 0 is up, it must migrate 0 → 1 at full power.
    let oid = (0..64)
        .map(ObjectId)
        .find(|&o| {
            mirror_view(2, 1, Strategy::Original)
                .place_current(o)
                .is_ok_and(|p| p.servers()[0].index() == 1)
        })
        .expect("some object maps to server 1 at full power");
    c.resize(1);
    c.put(oid, Bytes::copy_from_slice(PAYLOAD))
        .expect("setup write at reduced power");
    c.resize(2);
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            let _ = c.reintegrate_batch(1);
        });
    }
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            c.resize(1);
        });
    }
    env.after(move || {
        assert!(
            c.nodes().iter().any(|n| n.holds(oid)),
            "replica lost: remove-before-copy raced a power-down"
        );
    });
}

/// The re-seeded stamp-ordering regression: re-integration stamps the
/// header to the migration target *before* the copies land
/// ([`Mutation::StampBeforeCopy`]), so a concurrent reader can observe
/// a header version no replica satisfies yet and report a spurious
/// `NotFound`. The checker must find the failing window; the
/// counterexample replay test then reproduces it byte-identically from
/// the reported trace.
fn seeded_stamp_bug(env: &mut Env, mutation: Option<Mutation>) {
    let c = mutant(tiny_cluster(), mutation);
    // OID2's replicas move when the third server returns (OID's do
    // not): only a task with a move has a stamp to misorder.
    c.resize(2);
    c.put(OID2, Bytes::copy_from_slice(PAYLOAD2))
        .expect("setup write at reduced power");
    c.resize(3);
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            let _ = c.reintegrate_batch(1);
        });
    }
    env.spawn(move || {
        let got = c.get(OID2);
        assert!(
            got.is_ok(),
            "read during seeded re-integration failed: {got:?}"
        );
    });
}

/// Seeded weak-memory mutant of the view publication: the resize swaps
/// the membership snapshot with a `Relaxed` pointer store
/// ([`Mutation::RelaxedPublish`]). Sequentially consistent exploration
/// cannot tell it apart from the correct `Release` publication; the
/// weak mode buffers the swap and a post-join observer still reads the
/// *old* membership version — the ArcSwap stale-publication
/// counterexample. (Dereferencing the stale snapshot is memory-safe:
/// the retire list pins every `Arc` ever published.)
///
/// The mutant resizes *up*: a resize down powers the leaving nodes off
/// after the publication, and that write-through store would drain the
/// store buffer in FIFO order and mask the staleness, exactly as on TSO
/// hardware. Powering up happens before the publication, which leaves
/// the swap the resizing thread's last store.
fn weak_view_publish_relaxed(env: &mut Env, mutation: Option<Mutation>) {
    let c = mutant(tiny_cluster(), mutation);
    c.resize(2);
    let v0 = c.current_version();
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            c.resize(3);
        });
    }
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            // A racing reader may pin either epoch; both must resolve.
            let _ = c.current_version();
        });
    }
    env.after(move || {
        assert!(
            c.current_version() > v0,
            "resize publication never became visible (stale Relaxed view swap)"
        );
    });
}

/// A cluster shaped for message-mode exploration: no seed-hashed fault
/// fabric (the explorer *is* the network) and no retries. Retries
/// matter doubly here: with a budget of one fault, a retry would
/// re-send the rpc, meet the exhausted budget's forced delivery, and
/// silently heal every enumerated fault — the whole mode would prove
/// nothing. `RetryPolicy::none()` keeps each send's fate decisive and
/// the schedule space small.
fn msg_cluster(servers: usize, replicas: usize, breaker: Option<BreakerConfig>) -> Arc<Cluster> {
    let cfg = ClusterConfig {
        retry: RetryPolicy::none(),
        breaker,
        ..tiny_config(servers, replicas, Strategy::Primary)
    };
    Cluster::with_faults(cfg, FaultPlan::default(), Arc::new(VirtualClock::new()))
}

/// Breaker for the recovery model: a single failure trips it, and the
/// cooldown is shorter than one backoff charge, so an open breaker's
/// own fast-fail ages it into half-open — the probe path is reachable
/// in every schedule that trips it.
const PROBE_BREAKER: BreakerConfig = BreakerConfig {
    failure_threshold: 1,
    cooldown: Duration::from_micros(50),
};

/// Breaker for the misclassification mutant: the cooldown is stretched
/// past anything the read loop can charge, so a read that arrives while
/// the breaker is open meets *only* fast-fails — the window where the
/// mutant fabricates `NotFound`.
const NOTFOUND_BREAKER: BreakerConfig = BreakerConfig {
    failure_threshold: 1,
    cooldown: Duration::from_millis(10),
};

/// A quorum write (primary + majority of three) under enumerated
/// message fates: a lost request, a lost ack, a duplicate, a reorder,
/// or a partition edge may cost one secondary, and an acknowledged
/// write must then leave either full placement or a dirty entry that
/// keeps the miss self-healing (§III-E's degraded-write contract,
/// driven by the message plane). Thread-only exploration delivers every
/// message and passes trivially; `--msg` proves the contract over every
/// single-fault placement.
///
/// `msg-quorum-ack-loss-bug` runs this scenario under
/// [`Mutation::SkipDirtyLog`]. Unlike `quorum-dirty-bug`, *nothing
/// else* fails — the only way to miss a secondary is a message fault,
/// so thread-only exploration (where every send delivers and the
/// placement completes) passes exhaustively, and only `--msg` produces
/// the lost-update schedule.
fn msg_quorum_ack_loss(env: &mut Env, mutation: Option<Mutation>) {
    let c = mutant(msg_cluster(3, 3, None), mutation);
    env.spawn(move || {
        if c.put(OID, Bytes::copy_from_slice(PAYLOAD)).is_ok() {
            assert!(
                c.is_fully_placed(OID) || c.dirty_len() >= 1,
                "degraded quorum ack left no dirty entry under message loss"
            );
        }
    });
}

/// The breaker state machine driven by enumerated message faults: each
/// fault trips the threshold-one breaker, the fast-fail's backoff
/// charge outlives the cooldown, and the next read probes half-open and
/// closes it again. Over the read loop a committed object must never be
/// reported `NotFound` (an open breaker is a routing verdict, not an
/// authoritative miss), every successful read returns the exact bytes,
/// and each enumerated fault may cost at most one read — so with the
/// declared fault budget, at least `reads - budget` of the reads must
/// succeed (a breaker that stays open after its fault's read would eat
/// the fault-free tail and land below the floor).
fn msg_breaker_probe(env: &mut Env, _: Option<Mutation>) {
    let c = msg_cluster(1, 1, Some(PROBE_BREAKER));
    c.put(OID, Bytes::copy_from_slice(PAYLOAD))
        .expect("setup write on a fault-free fabric");
    env.spawn(move || {
        let mut ok = 0u32;
        const READS: u32 = 6;
        const BUDGET: u32 = 2; // mirrors the model's declared msg_budget
        for _ in 0..READS {
            match c.get(OID) {
                Ok(data) => {
                    assert_eq!(&data[..], PAYLOAD, "read returned wrong bytes");
                    ok += 1;
                }
                Err(e) => assert!(
                    !matches!(e, ClusterError::NotFound),
                    "open breaker misreported a committed object as NotFound"
                ),
            }
        }
        assert!(
            ok >= READS - BUDGET,
            "breaker never recovered: only {ok}/{READS} reads succeeded"
        );
    });
}

/// Seeded mutant of [`msg_breaker_probe`]: the read path stops counting
/// an open breaker as transient ([`Mutation::BreakerIsAuthoritative`]), and
/// the stretched cooldown pins the breaker open for a whole read — so a
/// get that arrives behind a tripped breaker sees only fast-fails and
/// fabricates an authoritative `NotFound` for a committed object.
/// Thread-only exploration has no fault to trip the breaker with and
/// passes exhaustively; `--msg` needs a single fault to catch it.
fn msg_breaker_notfound_bug(env: &mut Env, mutation: Option<Mutation>) {
    let c = mutant(msg_cluster(1, 1, Some(NOTFOUND_BREAKER)), mutation);
    c.put(OID, Bytes::copy_from_slice(PAYLOAD))
        .expect("setup write on a fault-free fabric");
    env.spawn(move || {
        for _ in 0..2 {
            match c.get(OID) {
                Ok(data) => assert_eq!(&data[..], PAYLOAD, "read returned wrong bytes"),
                Err(e) => assert!(
                    !matches!(e, ClusterError::NotFound),
                    "open breaker misreported a committed object as NotFound"
                ),
            }
        }
    });
}

/// Duplicate delivery against the production write path:
/// [`ech_cluster::node::StorageNode::put`] overwrites, so a
/// retransmitted request that executes twice is harmless and a read
/// after an acknowledged write returns exactly the committed bytes.
/// `--msg` proves the idempotence over every single-fault placement;
/// thread-only exploration never retransmits anything.
///
/// `msg-dup-append-bug` runs this scenario under
/// [`Mutation::AppendOnStore`], a non-idempotent store. On a fault-free
/// fabric it is byte-for-byte a first write — the appended-to slot is
/// empty — so thread-only exploration passes exhaustively; under the
/// `Duplicate` fate the retransmission appends twice and the reader
/// observes the doubled payload. Only `--msg` catches it.
fn msg_dup_idempotence(env: &mut Env, mutation: Option<Mutation>) {
    let c = mutant(msg_cluster(3, 3, None), mutation);
    env.spawn(move || {
        if c.put(OID, Bytes::copy_from_slice(PAYLOAD)).is_ok() {
            let got = c.get(OID).expect("acked object must stay readable");
            assert_eq!(
                &got[..],
                PAYLOAD,
                "retransmitted write corrupted the payload"
            );
        }
    });
}

/// Seeded history mutant: the write path acknowledges the client
/// *before* the write body runs ([`Mutation::AckBeforeWrite`]). The cluster's
/// final state is perfect — the write always lands — so no in-model or
/// post-state assertion can see anything wrong, and the model carries
/// none. But in any schedule that preempts the writer between its
/// (premature) ack and the write landing, a whole `get` fits into the
/// gap and returns the *old* payload: a read that began after the new
/// write's acknowledgement observing the superseded value. Only the
/// recorded history shows it, so only `--lincheck` catches this model.
fn lin_ack_before_log_bug(env: &mut Env, mutation: Option<Mutation>) {
    let c = mutant(tiny_cluster(), mutation);
    c.put(OID, Bytes::copy_from_slice(PAYLOAD))
        .expect("setup write at full power");
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            let _ = c.put(OID, Bytes::copy_from_slice(PAYLOAD2));
        });
    }
    env.spawn(move || {
        let _ = c.get(OID);
    });
}

/// Seeded history mutant: the version-acceptance check is bypassed
/// ([`Mutation::AcceptStale`]) in the
/// [`stale_copy_setup`] geometry, where the *current* placement holds a
/// copy a past resize superseded. Unlike `stale-read-bug` — the same
/// seeded read path convicted by an in-model byte assertion — this
/// model asserts nothing: the stale read is only wrong *relative to the
/// earlier acknowledged rewrite*, which is exactly the caller-visible
/// order the recorded history captures. The racing crash of the fresh
/// replica makes no schedule correct: every interleaving serves the
/// superseded payload from the current placement.
fn lin_stale_read_bug(env: &mut Env, mutation: Option<Mutation>) {
    let c = mutant(stale_copy_cluster(), mutation);
    let (oid, fresh) = stale_copy_setup(&c);
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            c.nodes()[fresh].crash();
        });
    }
    env.spawn(move || {
        let _ = c.get(oid);
    });
}

/// Seeded history mutant: a plausible-looking reconciliation pass after
/// the heal restamps each dirty object's header down to the oldest
/// surviving replica stamp ([`Mutation::RestampDownOnHeal`]). Every replica
/// is intact and every membership invariant holds — state assertions
/// have nothing to object to — but the downgraded header re-admits the
/// superseded copy the resize left at the current placement (acceptance
/// is `stamp >= header`), so a reader scheduled after the heal serves
/// the old payload for an object whose newer write was acknowledged
/// long before. Schedules that read first pass; only the recorded
/// history of the heal-then-read interleavings convicts the bug.
fn lin_heal_restamp_bug(env: &mut Env, mutation: Option<Mutation>) {
    let c = mutant(stale_copy_cluster(), mutation);
    let (oid, _fresh) = stale_copy_setup(&c);
    {
        let c = Arc::clone(&c);
        env.spawn(move || {
            let _ = c.heal_dirty();
        });
    }
    env.spawn(move || {
        let _ = c.get(oid);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rule D9 pairs every model with a mutant; this extends the pairing
    /// to decision points. `mutation` is an `Option`, so a model flips at
    /// most one decision: every mutant (and only a mutant) flips exactly
    /// one, and every decision the production code consults is flipped
    /// by at least one model the sweep must catch.
    #[test]
    fn mutants_and_decision_points_cover_each_other() {
        for m in MODELS {
            let mutant = m.expect_failure
                || m.expect_failure_weak
                || m.expect_failure_msg
                || m.expect_failure_lincheck;
            assert_eq!(
                m.mutation.is_some(),
                mutant,
                "{}: a mutant selects exactly one Mutation, a safe model none",
                m.name
            );
        }
        for decision in Mutation::ALL {
            assert!(
                MODELS.iter().any(|m| m.mutation == Some(decision)),
                "no model catches {decision:?}"
            );
        }
    }
}
