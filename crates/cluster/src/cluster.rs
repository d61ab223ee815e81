//! The cluster coordinator: an in-process, multi-threaded elastic object
//! store.
//!
//! This is the executable counterpart of the paper's modified Sheepdog
//! deployment: real object bytes on [`StorageNode`]s, placement by
//! `ech-core` (Algorithm 1 or original CH), membership versioning on
//! every resize, write-availability offloading for free (placement skips
//! powered-off nodes), dirty tracking in the Redis-like store, and
//! selective re-integration executing actual replica copies.
//!
//! All operations take `&self`; the coordinator is safe to share across
//! client threads (`Arc<Cluster>`).

mod drain;
mod get;
mod put;
mod resize;

pub use drain::ReintegrationStats;

use crate::counters::{CounterSnapshot, Counters};
use crate::dirty_store::{KvDirtyTable, KvHeaderStore};
use crate::fault::{Clock, FaultInjector, FaultPlan, SystemClock};
use crate::lincheck::Recorder;
use crate::mutation::{Installed, Mutation};
use crate::net::{NetFabric, NetPlan, ReplicaBreakers, SendVerdict};
use crate::node::{NodeError, StorageNode};
use crate::repair::RepairStats;
use crate::retry::{Classify, Deadline, RetryPolicy};
use crate::sync::{
    counter_u64, footprint, footprint_write, AtomicBool, AtomicU64, Mutex, Ordering,
};
use arc_swap::ArcSwap;
use bytes::Bytes;
use ech_core::dirty::{DirtyEntry, DirtyTable, HeaderSource};
use ech_core::engine::EngineKind;
use ech_core::ids::{ObjectId, ServerId, VersionId};
use ech_core::layout::Layout;
use ech_core::placement::{Placement, PlacementError, Strategy};
use ech_core::ratelimit::TokenBucket;
use ech_core::reintegration::{Idle, MigrationTask, Reintegrator};
use ech_core::stats::CacheSnapshot;
use ech_core::view::ClusterView;
use ech_kvstore::{KvStore, ShardFaultHook};
use std::sync::Arc;
use std::time::Duration;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of storage nodes.
    pub servers: usize,
    /// Replication factor.
    pub replicas: usize,
    /// Virtual-node fairness base `B`.
    pub layout_base: u32,
    /// Placement algorithm (Primary = the paper's elastic design).
    pub strategy: Strategy,
    /// Candidate-stream engine the strategy walks (ring = the paper's
    /// consistent-hash ring; jump/dx/power = O(1)-lookup backends).
    pub placement: EngineKind,
    /// Shards of the backing key-value store.
    pub kv_shards: usize,
    /// Optional per-node disk capacities (§III-D tiered provisioning);
    /// `None` = unlimited disks.
    pub capacity_plan: Option<ech_core::layout::CapacityPlan>,
    /// Retry budget applied to transiently-failing node operations.
    pub retry: RetryPolicy,
    /// Inert: nothing under `crates/` reads it. The data path reads its
    /// placements from the per-arc memo of the view it pins, which has
    /// no capacity; the field stays only because `benchmark/` sizes its
    /// `core.cache.*` probes with it (ROADMAP item 2 deletes it).
    pub cache_capacity: usize,
    /// Inert, like [`ClusterConfig::cache_capacity`].
    pub cache_shards: usize,
    /// Tasks one [`Cluster::reintegrate_batch`] call plans and executes
    /// when `reintegrate_all` or the background worker drains.
    pub reintegration_batch: usize,
    /// Migration throttle in payload bytes per second; `None` leaves
    /// re-integration unthrottled. Must be positive when set.
    pub migration_rate: Option<f64>,
    /// Per-operation deadline budget for puts and gets: once spent,
    /// retries stop, remaining secondaries are skipped (and recorded as
    /// missed), and the op fails with [`ClusterError::DeadlineExceeded`]
    /// if it cannot degrade. `None` = no budget (retry policy alone
    /// bounds the op).
    pub op_deadline: Option<Duration>,
    /// Per-replica circuit breaker ([`crate::net::BreakerConfig`]):
    /// after enough consecutive message-level failures, sends to that
    /// replica fail fast instead of burning an rpc timeout each. `None`
    /// disables health tracking.
    pub breaker: Option<crate::net::BreakerConfig>,
}

impl ClusterConfig {
    /// The paper's deployment shape: 10 nodes, 2-way replication,
    /// primary placement over the equal-work layout, on the ring engine.
    pub fn paper() -> Self {
        ClusterConfig {
            servers: 10,
            replicas: 2,
            layout_base: 10_000,
            strategy: Strategy::Primary,
            placement: EngineKind::default(),
            kv_shards: 10,
            capacity_plan: None,
            retry: RetryPolicy::default(),
            cache_capacity: 65_536,
            cache_shards: 16,
            reintegration_batch: 8,
            migration_rate: None,
            op_deadline: None,
            breaker: None,
        }
    }

    /// The full-power view a cluster built from this config starts on.
    pub fn view(&self) -> ClusterView {
        let layout = Layout::for_strategy(self.strategy, self.servers, self.layout_base);
        ClusterView::with_engine(layout, self.strategy, self.replicas, self.placement)
    }
}

/// Replica acknowledgements a put needs at replication factor
/// `replicas`: the primary plus a majority of the `r - 1` secondaries,
/// `1 + ceil((r - 1) / 2)`.
///
/// The primary replica is always mandatory — it anchors the header-version
/// placement that degraded reads and healing rely on. Secondaries that
/// fail below the quorum are recorded as dirty-table entries and healed by
/// [`Cluster::heal_dirty`] / repair, so an acked write converges back to
/// full replication.
fn required_acks(replicas: usize) -> usize {
    1 + replicas.saturating_sub(1).div_ceil(2)
}

/// The count of dirty-log entries Algorithm 2 has not retired, alone on
/// its cache line: a clean read loads it, and no full-power operation
/// writes it, so concurrent readers keep the line shared.
#[derive(Debug)]
#[repr(align(64))]
struct Unreconciled(AtomicU64);

/// Cluster-level operation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// Placement failed (not enough active servers).
    Placement(PlacementError),
    /// No replica holds the object (an authoritative miss — retrying
    /// cannot help).
    NotFound,
    /// Candidate replicas exist but all attempts hit transient faults;
    /// the object may well be there. Retryable.
    Unavailable,
    /// Fewer replicas acknowledged the write than the configured quorum
    /// requires. Retryable (the failures may be transient).
    QuorumNotReached {
        /// Replicas that acknowledged.
        written: usize,
        /// Acks the quorum required.
        required: usize,
    },
    /// A node rejected an operation (unexpected power race).
    Node(NodeError),
    /// The operation's deadline budget ([`ClusterConfig::op_deadline`])
    /// ran out before it could complete *or* degrade cleanly. Permanent:
    /// any further attempt would start already expired.
    DeadlineExceeded,
    /// A coordinator invariant failed (e.g. a placement named a server
    /// outside the cluster). Indicates a bug; the data path reports it
    /// instead of panicking so degraded mode stays degraded (rule D2).
    Internal(&'static str),
}

impl ClusterError {
    /// True when the operation may succeed if simply retried. The
    /// verdict is delegated to the exhaustive classification in
    /// [`crate::retry`] (analyzer rule D3).
    pub fn is_retryable(&self) -> bool {
        self.is_retryable_class()
    }
}

impl From<PlacementError> for ClusterError {
    fn from(e: PlacementError) -> Self {
        ClusterError::Placement(e)
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Placement(e) => write!(f, "placement failed: {e}"),
            ClusterError::NotFound => write!(f, "object not found on any replica"),
            ClusterError::Unavailable => {
                write!(f, "replicas temporarily unavailable (transient faults)")
            }
            ClusterError::QuorumNotReached { written, required } => write!(
                f,
                "write quorum not reached ({written} of {required} required acks)"
            ),
            ClusterError::Node(e) => write!(f, "node error: {e}"),
            ClusterError::DeadlineExceeded => {
                write!(f, "operation deadline budget exhausted")
            }
            ClusterError::Internal(what) => {
                write!(f, "cluster invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Token-bucket throttle for re-integration payload bytes. Refills run
/// off the cluster clock, so virtual-clock drills stay deterministic.
#[derive(Debug)]
struct MigrationThrottle {
    bucket: TokenBucket,
    last_refill: Duration,
}

/// The elastic object-store cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    nodes: Vec<Arc<StorageNode>>,
    /// RCU-style membership snapshot. Readers that finish within the
    /// call [`ArcSwap::peek`] it — one `Acquire` load, no reference
    /// count, so concurrent clients share no written cache line here —
    /// and the borrow pins a coherent epoch until they return;
    /// [`Cluster::view_snapshot`] hands out an owned `Arc` for holding a
    /// view across calls. Writers clone-mutate-publish under
    /// `view_write`. The retire list is never trimmed under `&self`, which
    /// is what keeps a `peek` valid (see `vendor/arc_swap`).
    view: ArcSwap<ClusterView>,
    /// Serialises view writers (resize, crash marking, repair); readers
    /// never touch it.
    view_write: Mutex<()>,
    kv: Arc<KvStore>,
    /// Dirty-table handle. The kv log ops are atomic in the store, so the
    /// hot path appends through `&self` instead of a coordinator lock (the
    /// planner's `&mut` scans run on clones sharing the backing store);
    /// Algorithm 2's serial scan order is enforced by `engine`'s lock.
    dirty: KvDirtyTable,
    /// Entries logged to `dirty` and not yet retired: +1 before each
    /// push, −1 once Algorithm 2 pops an entry without a task, or once
    /// the task planned from it has copied and stamped or re-logged.
    /// While it reads 0 at full power, every acked write sits on every
    /// server of its placement and a get may skip the header
    /// ([`Cluster::get`]).
    unreconciled: Unreconciled,
    headers: KvHeaderStore,
    engine: Mutex<Reintegrator>,
    migration_limiter: Option<Mutex<MigrationThrottle>>,
    stop_worker: AtomicBool,
    migrated_bytes: AtomicU64,
    fault: Option<Arc<FaultInjector>>,
    /// Message fault plane: every data-path send to a node crosses this
    /// fabric (when installed) via [`Cluster::rpc`].
    net: Option<Arc<NetFabric>>,
    /// Per-replica circuit breakers consulted by [`Cluster::rpc`].
    breakers: Option<ReplicaBreakers>,
    clock: Arc<dyn Clock>,
    /// The one counter set, shared with the injector, fabric and
    /// breakers; a restart hands it to the new coordinator.
    counters: Arc<Counters>,
    /// Lincheck recording handle (zero-sized without the `lincheck`
    /// feature): attached to the session open on the building thread.
    recorder: Recorder,
    /// The seeded mutant this cluster runs (zero-sized and constantly
    /// empty without the `modelcheck` feature).
    mutation: Installed,
}

impl Cluster {
    /// Build a cluster at full power.
    pub fn new(cfg: ClusterConfig) -> Arc<Self> {
        Self::build(cfg, None)
    }

    /// Build a cluster running a deterministic [`FaultPlan`] on `clock`:
    /// the injector is threaded through every node's data path and
    /// installed as the key-value store's shard-fault hook, and retry
    /// backoff, kv brown-out waits, message delays, rpc timeouts and
    /// operation deadlines all consume `clock`. A
    /// [`crate::fault::VirtualClock`] makes a whole drill replayable
    /// without real-time dependence (`ech chaos` uses one);
    /// [`SystemClock`] runs on the wall clock.
    pub fn with_faults(cfg: ClusterConfig, plan: FaultPlan, clock: Arc<dyn Clock>) -> Arc<Self> {
        Self::build(cfg, Some((plan, clock)))
    }

    fn build(cfg: ClusterConfig, faults: Option<(FaultPlan, Arc<dyn Clock>)>) -> Arc<Self> {
        let counters = Arc::new(Counters::default());
        let (fault, clock) = match faults {
            Some((plan, clock)) => {
                let inj = FaultInjector::new(cfg.servers, plan, counters.clone());
                (Some(Arc::new(inj)), clock)
            }
            None => (None, Arc::new(SystemClock::new()) as Arc<dyn Clock>),
        };
        let view = cfg.view();
        let kv = KvStore::new(cfg.kv_shards);
        let nodes = (0..cfg.servers)
            .map(|i| {
                let id = ServerId(i as u32);
                let capacity = cfg
                    .capacity_plan
                    .as_ref()
                    .map(|p| p.capacity(id))
                    .unwrap_or(u64::MAX);
                Arc::new(StorageNode::with_capacity_and_faults(
                    id,
                    capacity,
                    fault.clone(),
                ))
            })
            .collect();
        let net = fault
            .as_ref()
            .and_then(|inj| inj.plan().net.clone())
            .map(|plan| NetFabric::new(cfg.servers, plan, clock.clone(), counters.clone()))
            .map(Arc::new);
        let recorder = Recorder::attach();
        // Every publish fills its class's memo first: no get or put
        // waits on a build.
        view.fill_memo();
        let view = Arc::new(view);
        Self::assemble(cfg, fault, clock, nodes, view, kv, net, counters, recorder)
    }

    /// Assemble a coordinator around the parts a fresh build and a
    /// restart obtain differently. Everything else is the coordinator's
    /// own and starts fresh: the re-integration engine, breaker state,
    /// migration throttle and (unmutated) decision points.
    /// The fault plan is installed as `kv`'s shard-fault hook.
    #[allow(clippy::too_many_arguments)] // one argument per differing part
    fn assemble(
        cfg: ClusterConfig,
        fault: Option<Arc<FaultInjector>>,
        clock: Arc<dyn Clock>,
        nodes: Vec<Arc<StorageNode>>,
        view: Arc<ClusterView>,
        kv: KvStore,
        net: Option<Arc<NetFabric>>,
        counters: Arc<Counters>,
        recorder: Recorder,
    ) -> Arc<Self> {
        let kv = Arc::new(kv);
        // A restored log's entries are all unretired; a fresh one is
        // empty. Read before the fault hook goes in, so it cannot fail.
        let logged = kv.dirty_len().map_or(0, |n| n as u64);
        if let Some(inj) = &fault {
            kv.set_fault_hook(Some(inj.clone() as Arc<dyn ShardFaultHook>));
        }
        // The throttle's burst is one second of budget, so a drain never
        // outruns the rate by more than a second's worth of bytes.
        let migration_limiter = cfg.migration_rate.map(|rate| {
            Mutex::new(MigrationThrottle {
                bucket: TokenBucket::new(rate, rate),
                last_refill: clock.now(),
            })
        });
        Arc::new(Cluster {
            nodes,
            view: ArcSwap::new(view),
            view_write: Mutex::new(()),
            dirty: KvDirtyTable::with_clock(kv.clone(), clock.clone()),
            unreconciled: Unreconciled(AtomicU64::new(logged)),
            headers: KvHeaderStore::with_clock(kv.clone(), clock.clone()),
            engine: Mutex::new(Reintegrator::new()),
            migration_limiter,
            stop_worker: AtomicBool::new(false),
            migrated_bytes: counter_u64(0),
            kv,
            fault,
            net,
            breakers: cfg
                .breaker
                .map(|b| ReplicaBreakers::new(cfg.servers, b, counters.clone())),
            cfg,
            clock,
            counters,
            recorder,
            mutation: Installed::default(),
        })
    }

    /// Turn this cluster into the seeded mutant `m`: from now on the
    /// one decision point named by `m` takes its wrong branch (see
    /// [`Mutation`]). A cluster carries at most one mutation for life;
    /// installing a second is a model bug and panics.
    #[cfg(feature = "modelcheck")]
    pub fn install_mutation(&self, m: Mutation) {
        self.mutation.install(m);
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The node handles (for inspection in tests/examples).
    pub fn nodes(&self) -> &[Arc<StorageNode>] {
        &self.nodes
    }

    /// The clock every time-dependent data-path decision runs on.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Resolve a placement-named server to its node handle. A miss means
    /// a placement/membership invariant broke; the data path reports it
    /// as a classified error instead of indexing (and panicking) on a
    /// bad rank.
    pub(crate) fn node(&self, server: ServerId) -> Result<&Arc<StorageNode>, ClusterError> {
        self.nodes
            .get(server.index())
            .ok_or(ClusterError::Internal("placement named an unknown server"))
    }

    /// The backing key-value store.
    pub fn kv(&self) -> &Arc<KvStore> {
        &self.kv
    }

    /// Simulate a coordinator restart: metadata (membership history,
    /// dirty table, object headers) is recovered from a snapshot of the
    /// key-value store, node disks keep their contents, and the
    /// re-integration engine starts fresh — which is exactly Algorithm
    /// 2's own rule (a new scan restarts from the table head), so resumed
    /// re-integration is correct by construction.
    ///
    /// Every restored dirty entry counts as unretired. An entry Algorithm
    /// 2 had popped for a task that had not yet copied and stamped is in
    /// no log, but its header still carries the dirty bit: each dirty
    /// header without an entry is logged again, so its task is re-planned
    /// and no get skips the header while the object awaits it.
    ///
    /// The fabric survives the restart: the network does not reset
    /// because the coordinator did. Breaker *state* is process-local
    /// health tracking and starts fresh, like the re-integration engine;
    /// the counters carry over, so [`Cluster::counters`] reads the same
    /// on the restarted coordinator.
    pub fn restart(&self) -> Arc<Cluster> {
        let view = self.view.load();
        let snapshot = self.kv.dump();
        let logged: std::collections::HashSet<ObjectId> =
            snapshot.dirty().iter().map(|e| e.oid).collect();
        let unlogged: Vec<DirtyEntry> = snapshot
            .headers()
            .iter()
            .filter(|(oid, h)| h.dirty && !logged.contains(oid))
            .map(|&(oid, h)| DirtyEntry::new(oid, h.version))
            .collect();
        let kv = KvStore::restore(snapshot, self.cfg.kv_shards)
            .expect("a live store's own dump holds only headers it packed");
        let restarted = Self::assemble(
            self.cfg.clone(),
            self.fault.clone(),
            self.clock.clone(),
            self.nodes.clone(),
            view,
            kv,
            self.net.clone(),
            self.counters.clone(),
            self.recorder.clone(),
        );
        for entry in unlogged {
            restarted.log_dirty(entry);
        }
        restarted
    }

    /// Clone-mutate-publish a new cluster view. `f` runs on a private
    /// clone of the current snapshot under the writer mutex (serialising
    /// concurrent membership changes); the result is then published
    /// atomically for the lock-free readers. Crate-internal: used by the
    /// repair module to record irregular memberships.
    pub(crate) fn update_view<R>(&self, f: impl FnOnce(&mut ClusterView) -> R) -> R {
        let _writer = self.view_write.lock();
        let mut next = ClusterView::clone(self.view.peek());
        let out = f(&mut next);
        next.fill_memo();
        self.view.store(Arc::new(next));
        out
    }

    /// The current cluster-view snapshot, lock-free. The returned `Arc`
    /// pins a coherent epoch for as long as the caller holds it — a
    /// concurrent resize publishes a *new* snapshot and never mutates
    /// this one.
    pub fn view_snapshot(&self) -> Arc<ClusterView> {
        self.view.load()
    }

    /// The header store (crate-internal: repair scans enumerate it).
    pub(crate) fn headers(&self) -> &KvHeaderStore {
        &self.headers
    }

    /// Current membership version.
    pub fn current_version(&self) -> VersionId {
        self.view.peek().current_version()
    }

    /// Number of active (placement-eligible) servers.
    pub fn active_count(&self) -> usize {
        self.view.peek().current_membership().active_count()
    }

    /// Dirty-table length.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Always all-zero: the data path has no placement cache to count.
    /// A placement is one row of the pinned view's per-arc memo, which
    /// holds every arc of a membership class from the moment the class
    /// is recorded, so it has no hits, misses or evictions. Kept only
    /// because `benchmark/` calls it; ROADMAP item 2 deletes it.
    pub fn cache_stats(&self) -> CacheSnapshot {
        CacheSnapshot::default()
    }

    /// Append a dirty entry: no coordinator lock, the kv log push is
    /// atomic in the store. The entry counts as unretired before it is
    /// pushed, so before the put that logs it acks.
    fn log_dirty(&self, entry: DirtyEntry) {
        self.unreconciled.0.fetch_add(1, Ordering::SeqCst);
        self.dirty.push_entry(entry);
    }

    /// Retire `n` dirty entries: Algorithm 2 popped them, and each one's
    /// data sits where its full-power placement reads it.
    fn retire(&self, n: usize) {
        if n > 0 {
            self.unreconciled.0.fetch_sub(n as u64, Ordering::SeqCst);
        }
    }

    /// The pinned view a get may read without the header, or `None`
    /// when it must read it first. Three things must hold: every
    /// replica acks a write (`required_acks(r) == r`, so no degraded
    /// quorum ack leaves a missed replica behind), no dirty entry is
    /// unretired, and the view is full power. Then every acked write
    /// sits on every server of its current placement, stamped at or
    /// above its header (DESIGN.md, "Clean reads").
    pub(crate) fn clean_view(&self) -> Option<&ClusterView> {
        let replicas = self.cfg.replicas;
        if required_acks(replicas) != replicas || self.unreconciled.0.load(Ordering::Acquire) != 0 {
            return None;
        }
        let view = self.view.peek();
        view.current_membership().is_full_power().then_some(view)
    }

    /// Total payload bytes moved by re-integration so far.
    pub fn migrated_bytes(&self) -> u64 {
        self.migrated_bytes.load(Ordering::Relaxed)
    }

    /// Every event counter of the cluster: the data path's retries,
    /// degraded acks, unavailable reads and budget failures, the injected
    /// node and kv faults, the fabric's message verdicts and the breakers'
    /// trips and fast-fails. Fields a cluster has no part for (no fault
    /// plan, no fabric, no breakers) stay zero.
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// The fault injector, when the cluster runs under a [`FaultPlan`].
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.as_ref()
    }

    /// The message fault fabric, when the fault plan carries a
    /// [`crate::net::NetPlan`].
    pub fn net_fabric(&self) -> Option<&Arc<NetFabric>> {
        self.net.as_ref()
    }

    /// A fresh [`Deadline`] for one client operation, from the
    /// configured budget.
    pub(crate) fn op_deadline(&self) -> Deadline {
        Deadline::from_config(&*self.clock, self.cfg.op_deadline)
    }

    /// One message-level node operation: the single choke point every
    /// data-path send crosses, so the breaker and the fault fabric see
    /// the whole conversation.
    ///
    /// Order of business: (1) an open breaker fails the send fast,
    /// charging one backoff base on the clock (a zero-cost rejection
    /// would let poll loops spin against an open breaker without
    /// advancing virtual time); (2) one [`SendVerdict`] rules on the
    /// message (deliver/delay/duplicate/drop/partition) — the seed-hashed
    /// fabric's, unless the model checker's message-scheduler mode is
    /// active, in which case the explorer's enumerated fate overrides it
    /// ([`SendVerdict::from_explorer`]); with neither, the send is a bare
    /// `op(node)`; (3) the outcome feeds the breaker. Lost messages cost
    /// the sender the plan's rpc timeout on the clock before surfacing
    /// as [`NodeError::Timeout`] / [`NodeError::Partitioned`] — an
    /// `Outbound` partition and a dropped *response* still execute `op`
    /// (the node did the work; only the ack vanished), which is what
    /// makes acked-write accounting under partitions honest.
    pub(crate) fn rpc<T>(
        &self,
        server: ServerId,
        node: &StorageNode,
        op: impl Fn(&StorageNode) -> Result<T, NodeError>,
    ) -> Result<T, NodeError> {
        let idx = server.index();
        if self.breakers.is_some() || self.net.is_some() {
            // Breaker health counters and fabric budgets are
            // checker-invisible (`counter_u64` internals); every send
            // mutates this link's channel state, so declare a coarse
            // per-server write for the partial-order reduction.
            footprint_write(footprint::RPC_BASE | idx as u64);
        }
        if let Some(b) = &self.breakers {
            if !b.try_acquire(idx, self.clock.now()) {
                self.clock.sleep(self.cfg.retry.base);
                return Err(NodeError::BreakerOpen);
            }
        }
        // What a lost message costs the sender on the clock.
        let timeout = || {
            self.net
                .as_ref()
                .map_or_else(NetPlan::default_rpc_timeout, |n| n.rpc_timeout())
        };
        let verdict = SendVerdict::from_explorer(timeout)
            .or_else(|| self.net.as_ref().map(|net| net.before_send(idx)));
        let result = match verdict {
            None => op(node),
            Some(SendVerdict::Deliver { delay, duplicate }) => {
                if let Some(d) = delay {
                    self.clock.sleep(d);
                }
                let r = op(node);
                if duplicate && r.is_ok() {
                    // A retransmitted request executes twice; node
                    // ops are idempotent so only the op counters see
                    // it (the duplicate's own faults are swallowed —
                    // the first reply already answered the sender).
                    let _ = op(node);
                }
                r
            }
            Some(SendVerdict::DropRequest) => {
                self.clock.sleep(timeout());
                Err(NodeError::Timeout)
            }
            Some(SendVerdict::DropResponse) => {
                let _ = op(node);
                self.clock.sleep(timeout());
                Err(NodeError::Timeout)
            }
            Some(SendVerdict::Partitioned { request_delivered }) => {
                if request_delivered {
                    let _ = op(node);
                }
                self.clock.sleep(timeout());
                Err(NodeError::Partitioned)
            }
        };
        if let Some(b) = &self.breakers {
            match &result {
                Ok(_) => b.record_success(idx),
                // Only message-level failures are link health signals;
                // application verdicts (NotFound, PoweredOff, DiskFull)
                // mean the link worked fine.
                Err(e) if e.is_transient() => b.record_failure(idx, self.clock.now()),
                Err(_) => {}
            }
        }
        result
    }

    /// [`Cluster::rpc`] under the configured retry policy: transient
    /// failures ([`NodeError::is_transient`]) are retried, with jitter
    /// seeded from `token`, while attempts and `deadline` budget remain.
    /// Returns the final result and the retries spent. Inlined so a put
    /// pays no call frame for the wrapper.
    #[inline(always)]
    pub(crate) fn call<T>(
        &self,
        server: ServerId,
        node: &StorageNode,
        deadline: Deadline,
        token: u64,
        op: impl Fn(&StorageNode) -> Result<T, NodeError>,
    ) -> (Result<T, NodeError>, u32) {
        self.cfg.retry.run_counted_deadline(
            &*self.clock,
            deadline,
            token,
            NodeError::is_transient,
            || self.rpc(server, node, &op),
        )
    }

    /// Where `oid`'s replicas should live right now.
    pub fn locate(&self, oid: ObjectId) -> Result<Placement, ClusterError> {
        Ok(self.view.peek().place_current(oid)?)
    }

    /// Check that every replica of `oid` required by the current
    /// placement is physically present (used by integrity tests).
    pub fn is_fully_placed(&self, oid: ObjectId) -> bool {
        self.locate(oid).is_ok_and(|p| self.holds_all(oid, &p))
    }
}

#[cfg(test)]
mod tests;
