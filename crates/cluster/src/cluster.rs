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

use crate::dirty_store::{KvDirtyTable, KvHeaderStore};
use crate::fault::{Clock, FaultInjector, FaultPlan, FaultStatsSnapshot, SystemClock};
use crate::lincheck::Recorder;
use crate::mutation::{Installed, Mutation};
use crate::net::{
    BreakerSnapshot, NetFabric, NetPlan, NetStatsSnapshot, ReplicaBreakers, SendVerdict,
};
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
use ech_core::stats::{CacheSnapshot, PathCounters, PathSnapshot};
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
    /// Replica acknowledgements a write needs before it is acked.
    pub write_quorum: WriteQuorum,
    /// Retry budget applied to transiently-failing node operations.
    pub retry: RetryPolicy,
    /// Inert: nothing under `crates/` reads it. The data path computes
    /// placements from its pinned view; the field stays only because
    /// `benchmark/` sizes its `core.cache.*` probes with it (ROADMAP
    /// item 2 deletes it).
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
    /// primary placement over the equal-work layout.
    ///
    /// The placement engine defaults to the ring but honours the
    /// `ECH_PLACEMENT` environment variable (`ring|jump|dx|power`), so
    /// whole drill suites (chaos, stress, model replay) can be re-run
    /// under an O(1) backend without touching their configs.
    ///
    /// # Panics
    /// Panics on an unparseable `ECH_PLACEMENT` value: a typo silently
    /// falling back to the ring would make an entire drill suite believe
    /// it exercised an O(1) backend while actually re-running the ring.
    pub fn paper() -> Self {
        let placement = match std::env::var("ECH_PLACEMENT") {
            // ech-allow(D2): this is config-time, not the data path —
            // a typoed engine name must fail the drill loudly, not
            // silently invalidate its coverage by running the default.
            Ok(v) => v.parse().unwrap_or_else(|e| panic!("ECH_PLACEMENT: {e}")),
            Err(std::env::VarError::NotPresent) => EngineKind::default(),
            // ech-allow(D2): same reasoning for a non-unicode value.
            Err(e) => panic!("ECH_PLACEMENT: {e}"),
        };
        ClusterConfig {
            servers: 10,
            replicas: 2,
            layout_base: 10_000,
            strategy: Strategy::Primary,
            placement,
            kv_shards: 10,
            capacity_plan: None,
            write_quorum: WriteQuorum::default(),
            retry: RetryPolicy::default(),
            cache_capacity: 65_536,
            cache_shards: 16,
            reintegration_batch: 8,
            migration_rate: None,
            op_deadline: None,
            breaker: None,
        }
    }
}

/// How many replica writes must succeed before a put is acknowledged.
///
/// The primary replica is always mandatory — it anchors the header-version
/// placement that degraded reads and healing rely on. Secondaries that
/// fail below the quorum are recorded as dirty-table entries and healed by
/// [`Cluster::heal_dirty`] / repair, so an acked write converges back to
/// full replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteQuorum {
    /// Every replica must succeed (strictest, least available).
    All,
    /// The primary plus a majority of the `r - 1` secondaries:
    /// `1 + ceil((r - 1) / 2)` acks. At `r = 2` this equals [`WriteQuorum::All`].
    #[default]
    PrimaryPlusMajority,
    /// A fixed ack count, clamped to `1..=r`. The primary still counts
    /// toward — and is required by — the quorum.
    AtLeast(usize),
}

impl WriteQuorum {
    /// Acks required at replication factor `replicas`.
    pub fn required(&self, replicas: usize) -> usize {
        match *self {
            WriteQuorum::All => replicas,
            WriteQuorum::PrimaryPlusMajority => 1 + replicas.saturating_sub(1).div_ceil(2),
            WriteQuorum::AtLeast(n) => n.clamp(1, replicas.max(1)),
        }
    }
}

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

/// Statistics from a re-integration pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReintegrationStats {
    /// Tasks (objects) migrated.
    pub tasks: usize,
    /// Individual replica moves executed.
    pub moves: usize,
    /// Payload bytes copied.
    pub bytes: u64,
    /// Replica moves that failed on message-level faults after retries
    /// (the task's entry is re-logged so a post-heal drain re-plans it).
    pub failed_moves: usize,
}

impl ReintegrationStats {
    /// Accumulate another pass's counters into this one.
    pub fn absorb(&mut self, other: ReintegrationStats) {
        self.tasks += other.tasks;
        self.moves += other.moves;
        self.bytes += other.bytes;
        self.failed_moves += other.failed_moves;
    }
}

/// Token-bucket throttle for re-integration payload bytes. Refills run
/// off the cluster clock, so virtual-clock drills stay deterministic.
#[derive(Debug)]
struct MigrationThrottle {
    bucket: TokenBucket,
    last_refill: Duration,
}

/// How reads pick among an object's replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPolicy {
    /// Always try the first replica first (simple, but hot-spots it).
    #[default]
    FirstReplica,
    /// Rotate the starting replica round-robin, spreading read load
    /// across all holders — the equal-work layout then makes read work
    /// proportional to data stored ("read performance proportionality",
    /// §III-C).
    Balanced,
    /// Probe the first replica under a latency budget, and hedge to the
    /// remaining candidates when the probe fails or overruns it
    /// (tail-latency hedging against slow replicas). The budget is
    /// measured on the cluster clock, so virtual-clock drills hedge
    /// deterministically.
    Hedged {
        /// Latency budget granted to the first candidate before the
        /// hedge fires.
        threshold: std::time::Duration,
    },
}

/// The elastic object-store cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    nodes: Vec<Arc<StorageNode>>,
    /// RCU-style membership snapshot: readers [`ArcSwap::load`] an
    /// immutable `Arc<ClusterView>` without locking, and the `Arc` pins a
    /// coherent epoch for as long as they hold it. Writers
    /// clone-mutate-publish under `view_write`.
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
    headers: KvHeaderStore,
    engine: Mutex<Reintegrator>,
    migration_limiter: Option<Mutex<MigrationThrottle>>,
    stop_worker: AtomicBool,
    migrated_bytes: AtomicU64,
    read_rr: AtomicU64,
    fault: Option<Arc<FaultInjector>>,
    /// Message fault plane: every data-path send to a node crosses this
    /// fabric (when installed) via [`Cluster::rpc`].
    net: Option<Arc<NetFabric>>,
    /// Per-replica circuit breakers consulted by [`Cluster::rpc`].
    breakers: Option<ReplicaBreakers>,
    clock: Arc<dyn Clock>,
    counters: PathCounters,
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

    /// Build a cluster running a deterministic [`FaultPlan`]: the
    /// injector is threaded through every node's data path and installed
    /// as the key-value store's shard-fault hook.
    pub fn with_faults(cfg: ClusterConfig, plan: FaultPlan) -> Arc<Self> {
        let injector = Arc::new(FaultInjector::new(cfg.servers, plan));
        Self::build(cfg, Some(injector))
    }

    /// [`Cluster::with_faults`] running on an injected [`Clock`]: retry
    /// backoff, kv brown-out waits, slow-replica delays and hedged-read
    /// thresholds all consume `clock` instead of the wall clock, so a
    /// [`crate::fault::VirtualClock`] makes a whole drill replayable
    /// without real-time dependence (`ech chaos` uses this).
    pub fn with_faults_and_clock(
        cfg: ClusterConfig,
        plan: FaultPlan,
        clock: Arc<dyn Clock>,
    ) -> Arc<Self> {
        let injector = Arc::new(FaultInjector::with_clock(cfg.servers, plan, clock));
        Self::build(cfg, Some(injector))
    }

    fn build(cfg: ClusterConfig, fault: Option<Arc<FaultInjector>>) -> Arc<Self> {
        let clock: Arc<dyn Clock> = match &fault {
            Some(inj) => inj.clock().clone(),
            None => Arc::new(SystemClock::new()),
        };
        let layout = match cfg.strategy {
            Strategy::Primary => Layout::equal_work(cfg.servers, cfg.layout_base),
            Strategy::Original => Layout::uniform(cfg.servers, cfg.layout_base),
        };
        let view = ClusterView::with_engine(layout, cfg.strategy, cfg.replicas, cfg.placement);
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
            .map(|plan| Arc::new(NetFabric::new(cfg.servers, plan, clock.clone())));
        let recorder = Recorder::attach();
        Self::assemble(cfg, fault, clock, nodes, Arc::new(view), kv, net, recorder)
    }

    /// Assemble a coordinator around the parts a fresh build and a
    /// restart obtain differently. Everything else is the coordinator's
    /// own and starts fresh: the re-integration engine, breakers, path
    /// counters, migration throttle and (unmutated) decision points.
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
        recorder: Recorder,
    ) -> Arc<Self> {
        let kv = Arc::new(kv);
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
            headers: KvHeaderStore::with_clock(kv.clone(), clock.clone()),
            engine: Mutex::new(Reintegrator::new()),
            migration_limiter,
            stop_worker: AtomicBool::new(false),
            migrated_bytes: counter_u64(0),
            read_rr: counter_u64(0),
            kv,
            fault,
            net,
            breakers: cfg.breaker.map(|b| ReplicaBreakers::new(cfg.servers, b)),
            cfg,
            clock,
            counters: PathCounters::default(),
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
    /// The fabric (and its message counters) survives the restart: the
    /// network does not reset because the coordinator did. Breaker state
    /// is process-local health tracking and starts fresh, like the
    /// re-integration engine.
    pub fn restart(&self) -> Arc<Cluster> {
        let view = self.view.load();
        let kv = KvStore::restore(self.kv.dump(), self.cfg.kv_shards)
            .expect("a live store's own dump holds only headers it packed");
        Self::assemble(
            self.cfg.clone(),
            self.fault.clone(),
            self.clock.clone(),
            self.nodes.clone(),
            view,
            kv,
            self.net.clone(),
            self.recorder.clone(),
        )
    }

    /// Clone-mutate-publish a new cluster view. `f` runs on a private
    /// clone of the current snapshot under the writer mutex (serialising
    /// concurrent membership changes); the result is then published
    /// atomically for the lock-free readers. Crate-internal: used by the
    /// repair module to record irregular memberships.
    pub(crate) fn update_view<R>(&self, f: impl FnOnce(&mut ClusterView) -> R) -> R {
        let _writer = self.view_write.lock();
        let mut next = ClusterView::clone(&self.view.load());
        let out = f(&mut next);
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
        self.view.load().current_version()
    }

    /// Number of active (placement-eligible) servers.
    pub fn active_count(&self) -> usize {
        self.view.load().current_membership().active_count()
    }

    /// Dirty-table length.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Always all-zero: the data path has no placement cache to count
    /// (reads walk Algorithm 1 on their pinned view). Kept only because
    /// `benchmark/` calls it; ROADMAP item 2 deletes it.
    pub fn cache_stats(&self) -> CacheSnapshot {
        CacheSnapshot::default()
    }

    /// Append a dirty entry: no coordinator lock, the kv log push is
    /// atomic in the store.
    fn log_dirty(&self, entry: DirtyEntry) {
        self.dirty.push_entry(entry);
    }

    /// Total payload bytes moved by re-integration so far.
    pub fn migrated_bytes(&self) -> u64 {
        self.migrated_bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of the degraded-path counters (retries, quorum acks,
    /// missed replicas, hedged reads, unavailable errors).
    pub fn counters(&self) -> PathSnapshot {
        self.counters.snapshot()
    }

    /// The fault injector, when the cluster runs under a [`FaultPlan`].
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.as_ref()
    }

    /// Counters of injected faults, when running under a [`FaultPlan`].
    pub fn fault_stats(&self) -> Option<FaultStatsSnapshot> {
        self.fault.as_ref().map(|f| f.stats())
    }

    /// The message fault fabric, when the fault plan carries a
    /// [`crate::net::NetPlan`].
    pub fn net_fabric(&self) -> Option<&Arc<NetFabric>> {
        self.net.as_ref()
    }

    /// Counters of injected message faults, when a fabric is installed.
    pub fn net_stats(&self) -> Option<NetStatsSnapshot> {
        self.net.as_ref().map(|n| n.stats())
    }

    /// Circuit-breaker counters, when breakers are configured.
    pub fn breaker_stats(&self) -> Option<BreakerSnapshot> {
        self.breakers.as_ref().map(|b| b.snapshot(self.clock.now()))
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
                Err(NodeError::Timeout | NodeError::Partitioned | NodeError::Io) => {
                    b.record_failure(idx, self.clock.now());
                }
                Err(_) => {}
            }
        }
        result
    }

    /// Where `oid`'s replicas should live right now.
    pub fn locate(&self, oid: ObjectId) -> Result<Placement, ClusterError> {
        Ok(self.view.load().place_current(oid)?)
    }

    /// Write an object: place at the current version, store on the
    /// replica nodes, record the header, and log a dirty entry when the
    /// cluster is not at full power.
    ///
    /// The write is acknowledged once the configured [`WriteQuorum`] is
    /// met. The primary replica is mandatory; transiently-failing nodes
    /// are retried under the configured [`RetryPolicy`]. Secondaries
    /// still missing after retries are recorded in the dirty table —
    /// exactly like power-offloaded writes — so [`Cluster::heal_dirty`]
    /// and repair converge the object back to full replication.
    pub fn put(&self, oid: ObjectId, data: Bytes) -> Result<Placement, ClusterError> {
        let span = self.recorder.inv_put(oid, &data, &*self.clock);
        if self.mutation.mutated(Mutation::AckBeforeWrite) {
            // The ack belongs after the write body: recording it first
            // is the caller-visible analogue of replying to the client
            // before the log write is durable.
            self.recorder.ret_put(span, &Ok(()), &*self.clock);
            return self.put_epochs(oid, data);
        }
        let result = self.put_epochs(oid, data);
        self.recorder.ret_put(span, &result, &*self.clock);
        result
    }

    /// [`Cluster::put`]'s body, bracketed by the lincheck facade above
    /// so recorded histories see the ack exactly when the caller does.
    fn put_epochs(&self, oid: ObjectId, data: Bytes) -> Result<Placement, ClusterError> {
        // A resize can race this write between the placement snapshot and
        // the node I/O, powering a targeted node off mid-flight. That
        // failure is an artifact of the stale snapshot, not of cluster
        // health: re-place at the new membership version and try again
        // (bounded — each extra pass requires the version to have moved).
        let mut epochs = 0;
        // One budget for the whole put, epoch re-placements included.
        let deadline = self.op_deadline();
        loop {
            let (placement, version, power_dirty) = {
                let view = self.view.load();
                let p = view.place_current(oid)?;
                (p, view.current_version(), view.write_is_dirty())
            };
            match self.put_at(oid, &data, placement, version, power_dirty, deadline) {
                Err(ClusterError::Node(NodeError::PoweredOff))
                    if epochs < 4 && self.current_version() != version =>
                {
                    epochs += 1;
                }
                other => return other,
            }
        }
    }

    /// One write attempt against a fixed placement snapshot.
    fn put_at(
        &self,
        oid: ObjectId,
        data: &Bytes,
        placement: Placement,
        version: VersionId,
        power_dirty: bool,
        deadline: Deadline,
    ) -> Result<Placement, ClusterError> {
        let servers = placement.servers();
        let required = self.cfg.write_quorum.required(servers.len());
        let mut written = 0usize;
        let mut missed = 0usize;
        let mut permanent: Option<NodeError> = None;
        for (rank, &server) in servers.iter().enumerate() {
            let node = self.node(server)?;
            if rank > 0 && deadline.expired(&*self.clock) {
                // Budget gone: don't even send to the remaining
                // secondaries — count them missed and let the quorum
                // accounting below decide whether the write can still
                // degrade into an ack.
                missed += 1;
                continue;
            }
            let token = oid.raw() ^ ((server.index() as u64) << 48) ^ version.raw();
            let (result, retries) = self.cfg.retry.run_counted_deadline(
                &*self.clock,
                deadline,
                token,
                NodeError::is_transient,
                || {
                    self.rpc(server, node, |n| {
                        let payload = if self.mutation.mutated(Mutation::AppendOnStore) {
                            // A non-idempotent store: a retransmitted
                            // request appends a second time.
                            let held = n.get(oid).map(|o| o.data).unwrap_or_default();
                            Bytes::from(
                                held.iter().chain(data.iter()).copied().collect::<Vec<u8>>(),
                            )
                        } else {
                            data.clone()
                        };
                        n.put(oid, payload, version, power_dirty)
                    })
                },
            );
            self.counters.add_retries(retries as u64);
            match result {
                Ok(()) => written += 1,
                Err(e) if rank == 0 => {
                    // The primary anchors the header-version placement
                    // that degraded reads and healing rely on; a write
                    // that misses it is not acknowledged.
                    if deadline.expired(&*self.clock)
                        && matches!(e, NodeError::Timeout | NodeError::Partitioned)
                    {
                        self.counters.inc_deadline_exceeded();
                        return Err(ClusterError::DeadlineExceeded);
                    }
                    return Err(match e {
                        NodeError::Io => ClusterError::Unavailable,
                        other => ClusterError::Node(other),
                    });
                }
                Err(e) => {
                    // BreakerOpen is a routing verdict, not a node
                    // verdict: the replica is skipped and healed later,
                    // never allowed to veto the quorum as "permanent".
                    if !matches!(e, NodeError::BreakerOpen)
                        && !e.is_transient()
                        && permanent.is_none()
                    {
                        permanent = Some(e);
                    }
                    missed += 1;
                }
            }
        }
        if written < required {
            // A permanent secondary failure (e.g. DiskFull) that cost the
            // quorum is more actionable than a generic shortfall — no
            // amount of retrying will reach the quorum.
            if let Some(e) = permanent {
                return Err(ClusterError::Node(e));
            }
            if deadline.expired(&*self.clock) {
                // The budget, not the cluster, decided the shortfall:
                // fail cleanly within (just past) the deadline instead
                // of inviting a retry that would start expired.
                self.counters.inc_deadline_exceeded();
                return Err(ClusterError::DeadlineExceeded);
            }
            return Err(ClusterError::QuorumNotReached { written, required });
        }
        let is_dirty = power_dirty || missed > 0;
        self.headers.record_write(oid, version, is_dirty);
        // The ack and the dirty entry go together: the entry is what
        // makes a degraded or offloaded write self-healing (§III-E).
        if is_dirty && !self.mutation.mutated(Mutation::SkipDirtyLog) {
            self.log_dirty(DirtyEntry::new(oid, version));
        }
        if missed > 0 {
            self.counters.inc_quorum_acks();
            self.counters.add_replicas_missed(missed as u64);
        }
        Ok(placement)
    }

    /// Read an object from any live replica.
    ///
    /// First tries the current placement; if the object has not been
    /// re-integrated yet, falls back to the placement at its header's
    /// write version — "as long as the last version it is written is
    /// known, it is able to accurately find the servers that contain the
    /// latest replicas" (§III-E1).
    pub fn get(&self, oid: ObjectId) -> Result<Bytes, ClusterError> {
        let span = self.recorder.inv_get(oid, &*self.clock);
        // One budget spans the whole read, retries included.
        let deadline = self.op_deadline();
        let result = self
            .cfg
            .retry
            .run_counted_deadline(
                &*self.clock,
                deadline,
                oid.raw(),
                ClusterError::is_retryable,
                || self.get_at(oid, ReadPolicy::FirstReplica, deadline),
            )
            .0;
        self.recorder.ret_get(span, &result, &*self.clock);
        result
    }

    /// Read an object, choosing the starting replica per `policy`.
    ///
    /// Replicas carry the version they were written at; an object
    /// rewritten at a newer membership version may leave *stale* copies
    /// at its older placements until re-integration/repair collects them.
    /// Reads therefore accept only copies whose stored version matches
    /// the authoritative header (§III-E2: the header lets the system
    /// "identify the latest data version and avoid stale data").
    pub fn get_with(&self, oid: ObjectId, policy: ReadPolicy) -> Result<Bytes, ClusterError> {
        let span = self.recorder.inv_get(oid, &*self.clock);
        let result = self.get_at(oid, policy, self.op_deadline());
        self.recorder.ret_get(span, &result, &*self.clock);
        result
    }

    /// One read attempt under `deadline`: [`Cluster::get_with`]'s body,
    /// and what [`Cluster::get`] retries.
    fn get_at(
        &self,
        oid: ObjectId,
        policy: ReadPolicy,
        deadline: Deadline,
    ) -> Result<Bytes, ClusterError> {
        let expected = self.headers.header(oid).map(|h| h.version);
        let view = self.view.load();
        let current = view.place_current(oid).ok();
        // `locate_ser(OID, Ver)` at the header version adds a candidate
        // only when that membership differs in content from the current
        // one: after a down/up cycle most headers name an older version
        // of the *same* membership, and the second walk is skipped. (An
        // unrecorded version has no class and no placement either way.)
        let history = view.history();
        let written = expected
            .filter(|&ver| history.epoch_class(ver) != history.epoch_class(view.current_version()))
            .and_then(|ver| view.place_at(oid, ver).ok());
        drop(view);
        // Current placement first, then the header-version servers it
        // does not already name. The common case is one placement, whose
        // server list is borrowed as is.
        let merged: Placement;
        let candidates: &[ServerId] = match (&current, &written) {
            (Some(c), Some(w)) => {
                merged = c.then_unseen(w);
                merged.servers()
            }
            (Some(p), None) | (None, Some(p)) => p.servers(),
            (None, None) => return Err(ClusterError::NotFound),
        };
        let start = match policy {
            ReadPolicy::FirstReplica | ReadPolicy::Hedged { .. } => 0,
            ReadPolicy::Balanced => {
                self.read_rr.fetch_add(1, Ordering::Relaxed) as usize % candidates.len()
            }
        };
        // A copy is acceptable when its stamp is at least the header
        // version we read: stale (superseded) copies are always strictly
        // older than the header, while a concurrent re-integration may
        // restamp fresh copies *past* the header snapshot we took.
        let acceptable = |stamp: ech_core::ids::VersionId| {
            self.mutation.mutated(Mutation::AcceptStale) || expected.is_none_or(|v| stamp >= v)
        };
        if let ReadPolicy::Hedged { threshold } = policy {
            if let Some(data) = self.hedged_get(oid, candidates, &acceptable, threshold, deadline) {
                return Ok(data);
            }
        }
        // Transient failures must not masquerade as authoritative misses:
        // track them and report `Unavailable` (retryable) instead of
        // `NotFound` when every failure could have been a fault. An open
        // breaker counts too — it is a routing verdict about the link,
        // never an authoritative statement about the object.
        let transient = |e: &NodeError| {
            e.is_transient()
                || (matches!(e, NodeError::BreakerOpen)
                    && !self.mutation.mutated(Mutation::BreakerIsAuthoritative))
        };
        let mut saw_transient = false;
        // Placement-guided candidates first; when they fail (e.g. the
        // fresh copy sits on a server an intermediate re-integration
        // chose), sweep all nodes for a version-matching copy before
        // giving up.
        let guided = candidates.iter().copied().cycle().skip(start);
        let sweep = (0..self.nodes.len() as u32).map(ServerId);
        for server in guided.take(candidates.len()).chain(sweep) {
            if deadline.expired(&*self.clock) {
                self.counters.inc_deadline_exceeded();
                return Err(ClusterError::DeadlineExceeded);
            }
            let node = self.node(server)?;
            match self.rpc(server, node, |n| n.get(oid)) {
                Ok(obj) if acceptable(obj.header.version) => return Ok(obj.data),
                Ok(_) => {}
                Err(e) => saw_transient |= transient(&e),
            }
        }
        if saw_transient {
            self.counters.inc_unavailable();
            Err(ClusterError::Unavailable)
        } else {
            Err(ClusterError::NotFound)
        }
    }

    /// Probe the first candidate under a per-probe latency budget of
    /// `threshold`, and hedge to the remaining candidates when the probe
    /// either failed or overran the budget on the cluster clock. `None`
    /// falls back to the caller's sequential sweep.
    ///
    /// The probe runs inline through [`Cluster::rpc`]: a slow replica
    /// charges its injected delay to the clock, so "did it answer within
    /// the threshold" is a pure clock comparison — no helper thread, no
    /// channel polling, no wall-time dependence. The threshold is a
    /// *freshness* budget, not a race: a first replica that answers late
    /// (or returns a stale copy) loses to any acceptable secondary, and
    /// is used only as the last resort.
    ///
    /// The operation's [`Deadline`] is consulted before every hedge
    /// probe: hedging is an optimisation, and a spent budget means the
    /// caller's sequential sweep should surface the failure instead.
    fn hedged_get(
        &self,
        oid: ObjectId,
        candidates: &[ServerId],
        acceptable: &impl Fn(VersionId) -> bool,
        threshold: std::time::Duration,
        deadline: Deadline,
    ) -> Option<Bytes> {
        let first_id = *candidates.first()?;
        let first = self.node(first_id).ok()?;
        let t0 = self.clock.now();
        let first_result = self.rpc(first_id, first, |n| n.get(oid));
        let overran = self.clock.now().saturating_sub(t0) >= threshold;
        if let Ok(obj) = &first_result {
            if acceptable(obj.header.version) && !overran {
                return Some(obj.data.clone());
            }
        }
        // The first replica was slow, stale, or unreachable — hedge.
        self.counters.inc_hedged_reads();
        for &s in candidates.iter().skip(1) {
            if deadline.expired(&*self.clock) {
                break;
            }
            if let Ok(obj) = self.rpc(s, self.node(s).ok()?, |n| n.get(oid)) {
                if acceptable(obj.header.version) {
                    return Some(obj.data);
                }
            }
        }
        // Every hedge lost; a late-but-acceptable original still wins
        // over giving up.
        if let Ok(obj) = first_result {
            if acceptable(obj.header.version) {
                return Some(obj.data);
            }
        }
        None
    }

    /// Resize to `active` servers (an expansion-chain prefix): records a
    /// new membership version and flips node power states. Elastic
    /// placement needs no clean-up before power-down — that is the point.
    ///
    /// # Panics
    /// Panics if `active` is outside `1..=n`.
    pub fn resize(&self, active: usize) -> VersionId {
        let span = self.recorder.inv_resize(active, &*self.clock);
        let version = self.resize_views(active);
        self.recorder.ret_ok(span, &*self.clock);
        version
    }

    fn resize_views(&self, active: usize) -> VersionId {
        let _writer = self.view_write.lock();
        let mut next = ClusterView::clone(&self.view.load());
        let version = next.resize(active);
        // Power ordering around the snapshot swap: servers joining the
        // membership power on *before* the new view is published (a
        // reader of the new epoch must find them accepting I/O), and
        // servers leaving power off *after* (readers still pinning the
        // old epoch hit the PoweredOff epoch-retry path, same as before).
        for (i, node) in self.nodes.iter().enumerate() {
            if i < active {
                node.set_powered(true);
            }
        }
        match () {
            // The publication must be `Release` (rule D6's dynamic
            // analogue); `Relaxed` lets it linger in a store buffer.
            #[cfg(feature = "modelcheck")]
            () if self.mutation.mutated(Mutation::RelaxedPublish) => {
                self.view.store_relaxed(Arc::new(next));
            }
            () => self.view.store(Arc::new(next)),
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if i >= active {
                node.set_powered(false);
            }
        }
        version
    }

    /// Swap the placement engine, migrating every tracked object to its
    /// placement under the new backend. Returns the number of objects
    /// whose replicas moved.
    ///
    /// An engine swap changes the id→node mapping on the *same*
    /// membership, so it is sequenced like a careful resize: copies land
    /// at the new-engine placement first, the swapped view publishes
    /// second, and stale old-engine replicas are removed last. Readers
    /// pinning the pre-swap snapshot keep resolving against the old
    /// engine (their replicas are removed only after the publish, and
    /// the full-placement sweep fallback in `get` covers the removal
    /// window); readers of the new snapshot find their copies already
    /// in place. The engine is part of the view, so each side resolves
    /// every placement under the backend its snapshot names. Writes
    /// racing the swap are healed by the dirty/repair machinery like any
    /// degraded write — the writer lock held here serialises the swap
    /// against resizes, not against data-path I/O.
    pub fn set_engine(&self, engine: EngineKind) -> Result<usize, ClusterError> {
        let _writer = self.view_write.lock();
        let old = self.view.load();
        if old.engine() == engine {
            return Ok(0);
        }
        let mut next = ClusterView::clone(&old);
        // ech-allow(D4): this is the view's engine setter, not a
        // re-entrant swap — the bare-name fallback conflates it with
        // this method.
        next.set_engine(engine);
        let version = next.current_version();
        let mut moved = 0usize;
        let mut stale: Vec<(ObjectId, Vec<ServerId>)> = Vec::new();
        // ech-allow(D4): the header scan and the copy fan-out below run
        // under the writer lock on purpose — a resize landing mid-swap
        // would be clobbered by the publish of `next`, which was cloned
        // before it. An engine swap is a rare admin operation; blocking
        // resizes for its duration is the contract, and the data path
        // (get/put) never takes this lock so I/O keeps flowing.
        for oid in self.headers.all_objects() {
            let from = old.place_at(oid, version)?;
            let to = next.place_at(oid, version)?;
            if from == to {
                continue;
            }
            // Read the payload from any current replica; an object whose
            // replicas are all dark stays where it is and is left to the
            // repair scan (the swap must not turn one unreadable object
            // into a failed migration of everything else).
            let Some(obj) = from
                .servers()
                .iter()
                .filter_map(|&s| self.node(s).ok())
                .find_map(|n| self.rpc(n.id(), n, |n| n.get(oid)).ok())
            else {
                continue;
            };
            let mut copied = false;
            for &server in to.servers() {
                if from.servers().contains(&server) {
                    copied = true;
                    continue;
                }
                let node = self.node(server)?;
                if self
                    .rpc(server, node, |n| {
                        // ech-allow(D4, D6): replica copy, not an
                        // authoritative stamp — it lands at the
                        // already-stamped header version *before* the
                        // swapped view publishes, which is exactly the
                        // careful-resize order (copies first, publish
                        // second, stale removal last). The writer lock
                        // stays held across the faultable copy by
                        // design; see the header-scan note above.
                        n.put(oid, obj.data.clone(), obj.header.version, obj.header.dirty)
                    })
                    .is_ok()
                {
                    self.migrated_bytes
                        .fetch_add(obj.data.len() as u64, Ordering::Relaxed);
                    copied = true;
                }
            }
            if !copied {
                continue;
            }
            moved += 1;
            stale.push((
                oid,
                from.servers()
                    .iter()
                    .copied()
                    .filter(|s| !to.servers().contains(s))
                    .collect(),
            ));
        }
        self.view.store(Arc::new(next));
        for (oid, servers) in stale {
            for server in servers {
                if let Ok(node) = self.node(server) {
                    node.remove(oid);
                }
            }
        }
        Ok(moved)
    }

    /// Execute one selective re-integration task. Returns the stats of
    /// the task, or the idle reason.
    pub fn reintegrate_step(&self) -> Result<ReintegrationStats, Idle> {
        self.reintegrate_batch(1)
    }

    /// Plan one migration task against the current snapshot. The engine
    /// lock serialises Algorithm 2's scan (and with it the dirty-table
    /// pops the scan performs).
    fn plan_task(&self) -> Result<MigrationTask, Idle> {
        let view = self.view.load();
        let mut engine = self.engine.lock();
        let mut dirty = self.dirty.clone();
        engine.next_task(&view, &mut dirty, &self.headers)
    }

    /// Drain up to `max_tasks` (at least one) re-integration tasks on
    /// the calling thread, planning and executing them task by task.
    /// Returns the idle reason only when not even the first task could
    /// be planned.
    ///
    /// Interleaving is what makes duplicate dirty entries cheap: once
    /// the first task for an object has restamped its header, the
    /// object's later entries no longer qualify and pop without planning
    /// work.
    pub fn reintegrate_batch(&self, max_tasks: usize) -> Result<ReintegrationStats, Idle> {
        let span = self.recorder.inv_reintegrate(&*self.clock);
        let result = self.reintegrate_batch_body(max_tasks);
        self.recorder.ret_ok(span, &*self.clock);
        result
    }

    fn reintegrate_batch_body(&self, max_tasks: usize) -> Result<ReintegrationStats, Idle> {
        let mut total = ReintegrationStats::default();
        for planned in 0..max_tasks.max(1) {
            match self.plan_task() {
                Ok(task) => total.absorb(self.execute_task(&task)),
                Err(idle) if planned == 0 => return Err(idle),
                Err(_) => break,
            }
        }
        Ok(total)
    }

    /// Execute the byte movement and header restamp of one planned
    /// task. Two orders carry the safety argument: each move copies
    /// before it removes (a racing failure loses only the *copy*, never
    /// the source replica), and the header is stamped only after every
    /// copy landed (a reader never meets a header no replica satisfies).
    fn execute_task(&self, task: &MigrationTask) -> ReintegrationStats {
        let remove_before_copy = self.mutation.mutated(Mutation::RemoveBeforeCopy);
        let mut stats = ReintegrationStats {
            tasks: 1,
            ..Default::default()
        };
        if self.mutation.mutated(Mutation::StampBeforeCopy) {
            // The stamp belongs after the copies (below); running it
            // first opens the stale-header window.
            self.headers
                .record_write(task.oid, task.target_version, true);
        }
        // A move can fail for benign reasons (the replica already moved,
        // the source raced off) or because the *network* got in the way
        // after retries. The distinction matters: a fault-failed move
        // must not let the header restamp below pretend the migration
        // happened — that would strand the object behind a header no
        // copy can satisfy.
        let fault_failed = |e: &NodeError| {
            matches!(
                e,
                NodeError::Io
                    | NodeError::Timeout
                    | NodeError::Partitioned
                    | NodeError::BreakerOpen
            )
        };
        // One budget for the whole task: every per-move retry loop
        // consults the same expiry (rule D8), so a task against a dark
        // fabric gives up instead of spending a fresh budget per move.
        let deadline = self.op_deadline();
        for m in &task.moves {
            let (Ok(src), Ok(dst)) = (self.node(m.from), self.node(m.to)) else {
                // A move naming a server outside the cluster is a planner
                // bug; skip it and let the entry be re-planned.
                continue;
            };
            let src_token = task.oid.raw() ^ ((m.from.index() as u64) << 48);
            let got = self
                .cfg
                .retry
                .run_counted_deadline(
                    &*self.clock,
                    deadline,
                    src_token,
                    NodeError::is_transient,
                    || self.rpc(m.from, src, |n| n.get(task.oid)),
                )
                .0;
            match got {
                Ok(obj) => {
                    let bytes = obj.data.len() as u64;
                    self.throttle_migration(bytes as f64);
                    if remove_before_copy {
                        // The source goes away before the copy exists,
                        // so a put failure below loses the replica.
                        // ech-allow(D7): replica removes are reconciliation messages the coordinator repeats at will; they ride the reliable queue and bypass the fabric (DESIGN §8)
                        src.remove(task.oid);
                    }
                    // The destination is active at the target version by
                    // construction; a put failure here (after transient
                    // retries) means a racing resize — or a message-level
                    // fault — in which case the entry is re-planned.
                    let dst_token = task.oid.raw() ^ ((m.to.index() as u64) << 48);
                    let put = self
                        .cfg
                        .retry
                        .run_counted_deadline(
                            &*self.clock,
                            deadline,
                            dst_token,
                            NodeError::is_transient,
                            || {
                                self.rpc(m.to, dst, |n| {
                                    n.put(
                                        task.oid,
                                        obj.data.clone(),
                                        task.target_version,
                                        obj.header.dirty,
                                    )
                                })
                            },
                        )
                        .0;
                    match put {
                        Ok(()) => {
                            if !remove_before_copy {
                                // ech-allow(D7): replica removes are reconciliation messages the coordinator repeats at will; they ride the reliable queue and bypass the fabric (DESIGN §8)
                                src.remove(task.oid);
                            }
                            stats.moves += 1;
                            stats.bytes += bytes;
                        }
                        Err(e) if fault_failed(&e) => stats.failed_moves += 1,
                        Err(_) => {}
                    }
                }
                Err(e) if fault_failed(&e) => {
                    // The source may well hold the replica — the fabric
                    // just would not let us read it.
                    stats.failed_moves += 1;
                }
                Err(_) => {
                    // Replica already moved or source raced off: skip.
                }
            }
        }
        if stats.failed_moves > 0 {
            // The migration is incomplete through no fault of the plan:
            // message-level faults blocked at least one move. Advancing
            // the header now could strand the object (no copy would
            // satisfy the new stamp), so leave the header alone and put
            // the entry back — a drain after the faults clear re-plans
            // exactly this work.
            let version = self
                .headers
                .header(task.oid)
                .map(|h| h.version)
                .unwrap_or(task.target_version);
            self.log_dirty(DirtyEntry::new(task.oid, version));
            self.migrated_bytes
                .fetch_add(stats.bytes, Ordering::Relaxed);
            return stats;
        }
        // Advance the object header to the re-integration target (see
        // Figure 6: the header version moves with every migration); the
        // dirty bit clears only at full power. Every replica of the
        // object is restamped, not just the moved ones — otherwise the
        // untouched siblings would look stale next to the new header.
        // A concurrent rewrite may have advanced the header beyond the
        // task's target; never downgrade it.
        let full_power = self.view.load().current_membership().is_full_power();
        let still_dirty = !full_power;
        let superseded = self
            .headers
            .header(task.oid)
            .is_some_and(|h| h.version > task.target_version);
        if !superseded {
            if full_power {
                self.headers.mark_clean(task.oid, task.target_version);
            } else {
                self.headers
                    .record_write(task.oid, task.target_version, true);
            }
            for &server in task.to.servers() {
                if let Ok(node) = self.node(server) {
                    // ech-allow(D7): header restamps are reconciliation messages the coordinator repeats at will; they ride the reliable queue and bypass the fabric (DESIGN §8)
                    node.restamp(task.oid, task.target_version, still_dirty);
                }
            }
        }
        self.migrated_bytes
            .fetch_add(stats.bytes, Ordering::Relaxed);
        stats
    }

    /// Block (on the cluster clock) until the migration limiter grants
    /// `bytes` of payload budget. No-op when unthrottled. Requests
    /// larger than the burst drain the bucket in instalments, so any
    /// object size makes progress.
    fn throttle_migration(&self, bytes: f64) {
        let Some(limiter) = &self.migration_limiter else {
            return;
        };
        let mut remaining = bytes;
        while remaining > 0.0 {
            let wait = {
                let mut t = limiter.lock();
                let now = self.clock.now();
                let dt = now.saturating_sub(t.last_refill);
                t.bucket.refill(dt.as_secs_f64());
                t.last_refill = now;
                remaining -= t.bucket.consume_up_to(remaining);
                if remaining <= 0.0 {
                    return;
                }
                Duration::from_secs_f64(remaining / t.bucket.rate())
            };
            // Guard dropped before sleeping: the background worker and
            // `reintegrate_all` share the bucket, and neither may hold it
            // while the other refills and drains.
            self.clock
                .sleep(wait.clamp(Duration::from_micros(100), Duration::from_millis(50)));
        }
    }

    /// Run re-integration until nothing more qualifies at the current
    /// version. Returns the accumulated stats.
    ///
    /// Healing runs first: quorum writes may have acked with replicas
    /// missing, and at full power Algorithm 2 pops such entries without
    /// moving anything (nothing "qualifies" when the entry's version has
    /// the same active count as the current one) — the missed replicas
    /// must be re-created before the table drains.
    pub fn reintegrate_all(&self) -> ReintegrationStats {
        let span = self.recorder.inv_reintegrate(&*self.clock);
        let stats = self.reintegrate_all_body();
        self.recorder.ret_ok(span, &*self.clock);
        stats
    }

    fn reintegrate_all_body(&self) -> ReintegrationStats {
        self.heal_dirty();
        let batch = self.cfg.reintegration_batch.max(1);
        let mut total = ReintegrationStats::default();
        loop {
            match self.reintegrate_batch(batch) {
                Ok(s) => {
                    let stalled = s.moves == 0 && s.failed_moves > 0;
                    total.absorb(s);
                    if stalled {
                        // Every move in the batch died on message-level
                        // faults (e.g. an unhealed partition): the
                        // entries are re-logged, but draining harder now
                        // would just loop against the same dead links.
                        // Come back after the network heals.
                        return total;
                    }
                }
                Err(_) => return total,
            }
        }
    }

    /// Spawn a background re-integration worker that repeatedly calls
    /// [`Cluster::reintegrate_step`], sleeping `idle_wait` when idle.
    /// Stop it with [`Cluster::stop_background_worker`]; join the handle
    /// afterwards.
    pub fn start_background_worker(
        self: &Arc<Self>,
        idle_wait: std::time::Duration,
    ) -> std::thread::JoinHandle<()> {
        let me = Arc::clone(self);
        me.stop_worker.store(false, Ordering::Release);
        std::thread::spawn(move || {
            let batch = me.cfg.reintegration_batch.max(1);
            while !me.stop_worker.load(Ordering::Acquire) {
                match me.reintegrate_batch(batch) {
                    Ok(_) => {}
                    Err(_) => std::thread::sleep(idle_wait),
                }
            }
        })
    }

    /// Signal the background worker to exit.
    pub fn stop_background_worker(&self) {
        let order = if self.mutation.mutated(Mutation::RelaxedStopFlag) {
            // ech-allow(D5): deliberate seeded bug — the weak-memory
            // models need a real Relaxed publication for the checker to
            // catch.
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        self.stop_worker.store(true, order);
    }

    /// Has [`Cluster::stop_background_worker`] been called since the
    /// worker was (last) started? This is the worker loop's own exit
    /// test, exposed so tests and model-checking scenarios can observe
    /// the flag without joining the thread.
    pub fn stop_requested(&self) -> bool {
        self.stop_worker.load(Ordering::Acquire)
    }

    /// Heal replicas missed by degraded (quorum) writes: for every dirty
    /// object, re-create the replicas its *header-version* placement
    /// names but no node physically holds, copying from any fresh
    /// replica. Entries logged purely for power offloading are no-ops
    /// here (all their replicas exist) and are left to the
    /// re-integration engine, which owns the actual migrations.
    ///
    /// Healing targets the header-version placement — where the write
    /// intended its replicas — rather than the current one, so it never
    /// duplicates the engine's migration work. At full power, objects
    /// that end up fully placed get their dirty bit cleared.
    pub fn heal_dirty(&self) -> RepairStats {
        let span = self.recorder.inv_heal(&*self.clock);
        let stats = self.heal_dirty_body();
        self.recorder.ret_ok(span, &*self.clock);
        stats
    }

    fn heal_dirty_body(&self) -> RepairStats {
        // One batched LRANGE instead of a per-index LINDEX each: the
        // kv-backed table locks a shard per call, so reading the scan's
        // worth of entries in one op is what keeps a large backlog from
        // turning the heal pass into a lock convoy.
        let entries: Vec<DirtyEntry> = self.dirty.get_range(0, self.dirty.len());
        // One pinned view for the whole scan: entries healed against a
        // placement snapshot, not a per-entry reload (a resize racing
        // the scan is caught by the next heal pass either way).
        let view = self.view.load();
        let full_power = view.current_membership().is_full_power();
        let mut seen = std::collections::HashSet::new();
        let mut stats = RepairStats::default();
        for entry in entries {
            let oid = entry.oid;
            if !seen.insert(oid) {
                continue;
            }
            stats.scanned += 1;
            let Some(h) = self.headers.header(oid) else {
                continue;
            };
            let Ok(placement) = view.place_at(oid, h.version) else {
                continue;
            };
            // Most dirty entries are power-dirty, not degraded: every
            // placement target already holds the object and the copy
            // loop below would skip them all. Checking local presence
            // first keeps the common case off the (retry-wrapped,
            // fault-injected) probe path — this is what keeps the
            // reintegration drain rate intact, since `reintegrate_all`
            // leads with a full heal scan.
            let all_held = placement
                .servers()
                .iter()
                .all(|&s| self.node(s).is_ok_and(|n| n.holds(oid)));
            if !all_held {
                // One budget per healed object, shared by the source
                // probe and every target copy (rule D8): a dark fabric
                // costs one deadline per entry, not one per replica.
                let deadline = self.op_deadline();
                // Find a fresh source, retrying transient probe failures
                // so an injected fault cannot make a healthy replica
                // invisible.
                let mut source = None;
                for (i, n) in self.nodes.iter().enumerate() {
                    if !n.is_powered() {
                        continue;
                    }
                    let token = oid.raw() ^ ((i as u64) << 48) ^ 0x6EA1_0001;
                    let got = self
                        .cfg
                        .retry
                        .run_counted_deadline(
                            &*self.clock,
                            deadline,
                            token,
                            NodeError::is_transient,
                            || self.rpc(ServerId(i as u32), n, |node| node.get(oid)),
                        )
                        .0;
                    if let Ok(obj) = got {
                        if obj.header.version >= h.version {
                            source = Some(obj);
                            break;
                        }
                    }
                }
                let Some(obj) = source else { continue };
                for &target in placement.servers() {
                    let Ok(node) = self.node(target) else {
                        continue;
                    };
                    if node.holds(oid) {
                        continue;
                    }
                    let token = oid.raw() ^ ((target.index() as u64) << 48) ^ 0x6EA1_0002;
                    let put = self
                        .cfg
                        .retry
                        .run_counted_deadline(
                            &*self.clock,
                            deadline,
                            token,
                            NodeError::is_transient,
                            || {
                                self.rpc(target, node, |n| {
                                    n.put(
                                        oid,
                                        obj.data.clone(),
                                        obj.header.version,
                                        obj.header.dirty,
                                    )
                                })
                            },
                        )
                        .0;
                    if put.is_ok() {
                        stats.recreated += 1;
                        stats.bytes += obj.data.len() as u64;
                    }
                }
            }
            let placed_now = full_power
                && view.place_current(oid).is_ok_and(|p| {
                    p.servers()
                        .iter()
                        .all(|&s| self.node(s).is_ok_and(|n| n.holds(oid)))
                });
            if placed_now {
                self.headers.mark_clean(oid, h.version);
                for &server in placement.servers() {
                    if let Ok(node) = self.node(server) {
                        // ech-allow(D7): header restamps are reconciliation messages the coordinator repeats at will; they ride the reliable queue and bypass the fabric (DESIGN §8)
                        node.restamp(oid, h.version, false);
                    }
                }
            }
            if self.mutation.mutated(Mutation::RestampDownOnHeal) {
                // The oldest surviving stamp is where a *superseded*
                // copy lives, not where the object's latest write
                // landed — "reconciling" the header down to it
                // un-publishes every newer write to the object.
                let oldest = self
                    .nodes
                    .iter()
                    .filter_map(|n| n.get(oid).ok())
                    .map(|o| o.header.version)
                    .min();
                if let Some(v) = oldest.filter(|&v| v < h.version) {
                    self.headers.record_write(oid, v, h.dirty && !placed_now);
                }
            }
        }
        stats
    }

    /// Scan for nodes that crashed *silently* (an injected crash powers
    /// the node off without telling the coordinator) and record a
    /// membership version excluding them, so placement stops targeting
    /// dead disks and repair can re-replicate. Returns the newly-marked
    /// servers.
    pub fn detect_and_mark_crashed(&self) -> Vec<ServerId> {
        let _writer = self.view_write.lock();
        let view = self.view.load();
        let dark: Vec<ServerId> = (0..self.cfg.servers as u32)
            .map(ServerId)
            .filter(|&s| {
                view.current_membership().is_active(s)
                    && self.nodes.get(s.index()).is_some_and(|n| !n.is_powered())
            })
            .collect();
        if let Some((&head, tail)) = dark.split_first() {
            let mut next = ClusterView::clone(&view);
            let mut table = next
                .current_membership()
                .with_state(head, ech_core::membership::PowerState::Off);
            for &s in tail {
                table = table.with_state(s, ech_core::membership::PowerState::Off);
            }
            next.record_membership(table);
            self.view.store(Arc::new(next));
        }
        dark
    }

    /// Check that every replica of `oid` required by the current
    /// placement is physically present (used by integrity tests).
    pub fn is_fully_placed(&self, oid: ObjectId) -> bool {
        match self.locate(oid) {
            Ok(p) => p
                .servers()
                .iter()
                .all(|&s| self.node(s).is_ok_and(|n| n.holds(oid))),
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
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
            let _ = c.reintegrate_step();
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

    /// Placement is deterministic per config, so an unfaulted twin
    /// cluster tells a fault-plan test which servers an object lands on.
    fn placement_of(cfg: &ClusterConfig, oid: ObjectId) -> Vec<ServerId> {
        let c = Cluster::new(cfg.clone());
        c.locate(oid).unwrap().servers().to_vec()
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
        let servers = placement_of(&cfg, oid);
        // One secondary fails every attempt of the put (the retry budget
        // is 4 attempts; the error window covers exactly its first 4
        // ops), then recovers — deterministic by construction.
        let mut plan = FaultPlan::default();
        plan.set_node(
            servers[1].index(),
            NodeFaultSpec {
                io_error_prob: 1.0,
                io_error_until_op: cfg.retry.max_attempts as u64,
                ..NodeFaultSpec::default()
            },
        );
        let c = Cluster::with_faults(cfg, plan);
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
        assert_eq!(c.fault_stats().unwrap().io_errors, 4);
    }

    #[test]
    fn quorum_failure_rejects_the_write() {
        use crate::fault::{FaultPlan, NodeFaultSpec};
        let mut cfg = ClusterConfig::paper();
        cfg.replicas = 3;
        let oid = ObjectId(321);
        let servers = placement_of(&cfg, oid);
        let mut plan = FaultPlan::default();
        for &s in &servers[1..] {
            plan.set_node(
                s.index(),
                NodeFaultSpec {
                    io_error_prob: 1.0,
                    ..NodeFaultSpec::default()
                },
            );
        }
        let c = Cluster::with_faults(cfg, plan);
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
        let servers = placement_of(&cfg, oid);
        let mut plan = FaultPlan::default();
        plan.set_node(
            servers[1].index(),
            NodeFaultSpec {
                io_error_prob: 1.0,
                ..NodeFaultSpec::default()
            },
        );
        let c = Cluster::with_faults(cfg, plan);
        c.put(oid, payload(5)).unwrap();
        assert_eq!(c.counters().replicas_missed, 1);
        c.nodes()[servers[0].index()].set_powered(false);
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
        let c = Cluster::with_faults(ClusterConfig::paper(), plan);
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
        let c = Cluster::with_faults_and_clock(cfg, plan, clock.clone());
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
        let c = Cluster::with_faults_and_clock(cfg, plan, clock.clone());
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
                let c = Cluster::with_faults_and_clock(
                    ClusterConfig::paper(),
                    FaultPlan::default(),
                    clock.clone(),
                );
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
}
