//! # ech-cluster — a live elastic object-store cluster
//!
//! The executable counterpart of the paper's modified Sheepdog testbed
//! (§IV): an in-process, multi-threaded object store whose data path runs
//! the real elastic-consistent-hashing machinery end to end —
//!
//! * placement by Algorithm 1 (or original CH) from `ech-core`;
//! * membership versioning on every resize; powered-down nodes keep
//!   their data and simply stop serving;
//! * write-availability offloading (placement skips inactive nodes) with
//!   dirty logging into a Redis-like store (`ech-kvstore`) via
//!   RPUSH/LRANGE/LPOP, exactly as §IV describes;
//! * selective re-integration executing real replica copies, one task at
//!   a time, optionally from a background worker thread.
//!
//! ```
//! use ech_cluster::{Cluster, ClusterConfig};
//! use ech_core::ids::ObjectId;
//! use bytes::Bytes;
//!
//! let cluster = Cluster::new(ClusterConfig::paper());
//! cluster.put(ObjectId(10010), Bytes::from("hello")).unwrap();
//! cluster.resize(2); // power down to the primaries — no cleanup needed
//! assert_eq!(cluster.get(ObjectId(10010)).unwrap(), Bytes::from("hello"));
//! ```

pub mod cluster;
pub mod counters;
pub mod dirty_store;
pub mod fault;
pub mod lincheck;
pub mod mutation;
pub mod net;
pub mod node;
pub mod repair;
pub mod retry;
pub mod scenario;
pub mod sync;
pub mod vdi;

pub use cluster::{
    Cluster, ClusterConfig, ClusterError, ReadPolicy, ReintegrationStats, WriteQuorum,
};
pub use counters::{CounterSnapshot, Counters};
pub use dirty_store::{KvDirtyTable, KvHeaderStore};
pub use fault::{
    Clock, FaultInjector, FaultPlan, InjectedFault, NodeFaultSpec, ShardOutage, SystemClock,
    VirtualClock,
};
pub use net::{
    BreakerConfig, LinkFaultSpec, NetFabric, NetPlan, PartitionDirection, PartitionWindow,
    ReplicaBreakers, SendVerdict,
};
pub use node::{NodeError, StorageNode, StoredObject};
pub use repair::RepairStats;
pub use retry::{Deadline, RetryPolicy};
pub use vdi::{VdiError, VirtualDisk};
