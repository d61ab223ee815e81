//! # Elastic Consistent Hashing
//!
//! A from-scratch implementation of *Elastic Consistent Hashing for
//! Distributed Storage Systems* (Wei Xie and Yong Chen, IPDPS Workshops
//! 2017): power-proportional data placement for consistent-hashing based
//! object stores.
//!
//! The paper's three techniques map onto this crate as follows:
//!
//! | Technique | Module |
//! |---|---|
//! | Primary-server data placement (Algorithm 1) | [`placement`] |
//! | Equal-work data layout + capacity tiers | [`layout`] |
//! | Membership versioning | [`membership`], [`view`] |
//! | Dirty-data tracking | [`dirty`] |
//! | Selective data re-integration (Algorithm 2) | [`reintegration`] |
//! | Migration rate limiting | [`ratelimit`] |
//!
//! The crate is deliberately *pure*: no I/O, no threads, no clocks. The
//! executable substrates live in sibling crates — `ech-cluster` (a live
//! multi-threaded object store), `ech-sim` (a time-stepped performance
//! simulator), `ech-kvstore` (the Redis-like dirty-table store),
//! `ech-workload` and `ech-traces` (workloads and trace analysis).
//!
//! ## Quick start
//!
//! ```
//! use ech_core::prelude::*;
//!
//! // A 10-server cluster with the equal-work layout (2 primaries) and
//! // 2-way replication, as in the paper's running example.
//! let layout = Layout::equal_work(10, 10_000);
//! let mut view = ClusterView::new(layout, Strategy::Primary, 2);
//!
//! // Every object keeps exactly one replica on a primary server.
//! let placement = view.place_current(ObjectId(10010)).unwrap();
//! assert_eq!(placement.primary_replicas(view.layout()).count(), 1);
//!
//! // Power down to 6 servers — no cleanup needed, writes offload and are
//! // tracked dirty; power back up and selectively re-integrate.
//! view.resize(6);
//! let mut dirty = InMemoryDirtyTable::new();
//! dirty.push_back(DirtyEntry::new(ObjectId(10010), view.current_version()));
//! view.resize(10);
//! let mut engine = Reintegrator::new();
//! let tasks = engine.drain(&view, &mut dirty, &NoHeaders);
//! assert!(dirty.is_empty(), "full-power re-integration clears the table");
//! # let _ = tasks;
//! ```

pub mod cache;
pub mod dirty;
pub mod engine;
pub mod hash;
pub mod ids;
pub mod layout;
pub mod membership;
pub mod placement;
pub mod ratelimit;
pub mod reintegration;
pub mod ring;
pub mod stats;
pub mod sync;
pub mod view;
#[cfg(test)]
mod writebalance;

/// The commonly-used types, re-exported for glob import.
pub mod prelude {
    pub use crate::cache::ShardedPlacementCache;
    pub use crate::dirty::{
        DirtyEntry, DirtyTable, HeaderMap, HeaderSource, InMemoryDirtyTable, NoHeaders,
        ObjectHeader,
    };
    pub use crate::engine::{
        DxEngine, EngineKind, JumpEngine, PlacementEngine, PowerEngine, RingEngine,
    };
    pub use crate::hash::{fnv1a64, mix64, object_position, vnode_position};
    pub use crate::ids::{ObjectId, ServerId, VersionId};
    pub use crate::layout::{primary_count, CapacityPlan, Layout, LayoutKind};
    pub use crate::membership::{MembershipHistory, MembershipTable, PowerState};
    pub use crate::placement::{
        place, place_original, place_original_with, place_primary, place_primary_with, place_with,
        Placement, PlacementError, Strategy,
    };
    pub use crate::ratelimit::TokenBucket;
    pub use crate::reintegration::{
        placement_moves, Idle, MigrationMove, MigrationTask, Reintegrator,
    };
    pub use crate::ring::{HashRing, VirtualNode};
    pub use crate::view::ClusterView;
}
