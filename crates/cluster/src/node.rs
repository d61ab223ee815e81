//! A storage node: one simulated server process holding object replicas.
//!
//! Nodes keep their data when powered off — the elastic design's central
//! assumption ("the servers in the cluster never leave the cluster when
//! they are turned down", §IV). Powering a node off only flips its state;
//! reads/writes against an off node are rejected, but its disk contents
//! survive for the moment it rejoins.

use crate::fault::{FaultInjector, InjectedFault};
use crate::sync::{
    counter_u64, footprint, footprint_read, footprint_write, AtomicBool, AtomicU64, Ordering,
};
use bytes::Bytes;
use ech_core::dirty::{ObjectHeader, PackedHeader};
use ech_core::hash::{mix64, IdMap};
use ech_core::ids::{ObjectId, ServerId, VersionId};
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// One stored replica: payload plus the paper's object header (last
/// written version + dirty bit, §III-E2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredObject {
    /// Object payload.
    pub data: Bytes,
    /// Version/dirty header.
    pub header: ObjectHeader,
}

/// A replica as the node's map holds it: a [`StoredObject`] in two words,
/// so a map bucket with its key is 24 bytes.
#[derive(Debug)]
struct Replica {
    data: Bytes,
    header: PackedHeader,
}

const _: () = assert!(std::mem::size_of::<(ObjectId, Replica)>() == 24);

/// Lock stripes per node. Under the paper's layout every object keeps
/// one replica on a primary, so a primary's map is touched by most
/// operations; two clients meet on one stripe's lock 1/16 as often as
/// on a single map lock.
const STRIPES: usize = 16;

/// One stripe of a node's objects: its own map lock and op counters,
/// alone on a cache line so stripes do not share a line across cores.
#[derive(Debug)]
#[repr(align(64))]
struct Stripe {
    /// Keyed by program-made ids, so no SipHash; [`IdMap`]'s hash is
    /// independent of the ring position that chose this node and of
    /// the hash that chose this stripe.
    objects: RwLock<IdMap<ObjectId, Replica>>,
    /// Written only under `objects`' write lock.
    writes: AtomicU64,
    reads: AtomicU64,
}

impl Stripe {
    fn new() -> Self {
        Stripe {
            objects: RwLock::default(),
            writes: counter_u64(0),
            reads: counter_u64(0),
        }
    }
}

/// Errors from node-level operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeError {
    /// The node is powered off.
    PoweredOff,
    /// The object is not stored on this node.
    NotFound,
    /// The write would exceed the node's configured capacity (§III-D:
    /// the skewed layout over-fills small disks unless capacities are
    /// provisioned to match the weights).
    DiskFull {
        /// Configured capacity in bytes.
        capacity: u64,
        /// Bytes that would be stored after the write.
        needed: u64,
    },
    /// No reply arrived within the message timeout: the request or its
    /// response was lost in flight ([`crate::net`]). The op may or may
    /// not have executed — at-least-once retries must tolerate both.
    Timeout,
    /// A partition window cuts the link to this node; sends lose their
    /// budget until the window heals ([`crate::net::PartitionWindow`]).
    Partitioned,
    /// The per-replica circuit breaker is open: recent sends kept
    /// failing, so this one failed fast instead of burning another rpc
    /// timeout ([`crate::net::ReplicaBreakers`]).
    BreakerOpen,
    /// A transient I/O error (injected by a fault plan). Unlike the
    /// other variants this one is worth retrying: the next attempt rolls
    /// a fresh fault decision.
    Io,
}

impl NodeError {
    /// Is this error transient (a retry may succeed)? Delegates to the
    /// central [`crate::retry::Classify`] table.
    pub fn is_transient(&self) -> bool {
        crate::retry::Classify::is_retryable_class(self)
    }
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::PoweredOff => write!(f, "node is powered off"),
            NodeError::NotFound => write!(f, "object not found on node"),
            NodeError::DiskFull { capacity, needed } => {
                write!(
                    f,
                    "disk full: capacity {capacity} bytes, write needs {needed}"
                )
            }
            NodeError::Timeout => write!(f, "no reply within the message timeout"),
            NodeError::Partitioned => write!(f, "link cut by an active partition"),
            NodeError::BreakerOpen => write!(f, "replica circuit breaker is open"),
            NodeError::Io => write!(f, "transient i/o error"),
        }
    }
}

impl std::error::Error for NodeError {}

/// A thread-safe storage node.
#[derive(Debug)]
pub struct StorageNode {
    id: ServerId,
    powered: AtomicBool,
    /// The node's objects, split by [`StorageNode::stripe_of`].
    stripes: [Stripe; STRIPES],
    /// Bytes stored across all stripes. Moves only when a write changes
    /// an object's size (a compare-exchange that refuses growth past
    /// `capacity`) or a remove or crash drops it; an equal-size
    /// overwrite leaves it alone.
    bytes_stored: AtomicU64,
    /// Disk capacity in bytes; `u64::MAX` = unlimited.
    capacity: u64,
    /// Optional fault injector; `None` keeps the data path fault-free at
    /// the cost of one branch on a pointer.
    fault: Option<Arc<FaultInjector>>,
}

impl StorageNode {
    /// A powered-on, empty node with unlimited capacity.
    pub fn new(id: ServerId) -> Self {
        Self::with_capacity(id, u64::MAX)
    }

    /// A powered-on, empty node with `capacity` bytes of disk.
    pub fn with_capacity(id: ServerId, capacity: u64) -> Self {
        Self::with_capacity_and_faults(id, capacity, None)
    }

    /// A powered-on, empty node with `capacity` bytes of disk, running
    /// `fault`'s schedule on every put/get.
    pub fn with_capacity_and_faults(
        id: ServerId,
        capacity: u64,
        fault: Option<Arc<FaultInjector>>,
    ) -> Self {
        StorageNode {
            id,
            powered: AtomicBool::new(true),
            stripes: std::array::from_fn(|_| Stripe::new()),
            bytes_stored: counter_u64(0),
            capacity,
            fault,
        }
    }

    /// Consult the fault plan before serving an op: fail with
    /// [`NodeError::Io`] on an injected error, or crash (losing the disk)
    /// on a crash-at-op event.
    fn fault_gate(&self) -> Result<(), NodeError> {
        if let Some(inj) = &self.fault {
            match inj.before_node_op(self.id.index()) {
                Ok(()) => {}
                Err(InjectedFault::Io) => return Err(NodeError::Io),
                Err(InjectedFault::Crash) => {
                    self.crash();
                    return Err(NodeError::Io);
                }
            }
        }
        Ok(())
    }

    /// Configured disk capacity in bytes (`u64::MAX` = unlimited).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Footprint key covering this node's raw-locked object maps (every
    /// stripe) and its byte accounting (the state the checker cannot
    /// instrument).
    #[inline]
    fn foot_key(&self) -> u64 {
        footprint::NODE_BASE | self.id.index() as u64
    }

    #[inline]
    fn stripe(&self, oid: ObjectId) -> &Stripe {
        // ech-allow(D2): `stripe_of` reduces modulo `STRIPES`, the
        // array's length, so the index is always in range.
        &self.stripes[Self::stripe_of(oid)]
    }

    /// Account a replica going from `old` to `new` bytes, refusing growth
    /// past `capacity`. Callers hold the replica's stripe write lock, so
    /// `old` is still counted in the tally; other stripes move it
    /// concurrently, hence the compare-exchange.
    fn resize_tally(&self, old: u64, new: u64) -> Result<(), NodeError> {
        let mut stored = self.bytes_stored.load(Ordering::Relaxed);
        loop {
            let needed = stored - old + new;
            if needed > self.capacity {
                return Err(NodeError::DiskFull {
                    capacity: self.capacity,
                    needed,
                });
            }
            match self.bytes_stored.compare_exchange(
                stored,
                needed,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(seen) => stored = seen,
            }
        }
    }

    /// Number of lock stripes a node splits its objects over.
    pub const STRIPES: usize = STRIPES;

    /// Which stripe of a node holds `oid` (`0..STRIPES`): the low bits
    /// of `mix64(oid)`, a third hash independent of both the ring
    /// position ([`ech_core::hash::object_position`]) and the map's own
    /// [`ech_core::hash::IdHasher`] — striping by the map hash would give
    /// each stripe's table 1/16 of its bucket residues.
    #[inline]
    pub fn stripe_of(oid: ObjectId) -> usize {
        mix64(oid.raw()) as usize % STRIPES
    }

    /// This node's server id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Is the node powered on?
    pub fn is_powered(&self) -> bool {
        self.powered.load(Ordering::Acquire)
    }

    /// Power the node on or off. Data is retained either way.
    pub fn set_powered(&self, on: bool) {
        self.powered.store(on, Ordering::Release);
    }

    /// Store a replica. Fails when powered off.
    pub fn put(
        &self,
        oid: ObjectId,
        data: Bytes,
        version: VersionId,
        dirty: bool,
    ) -> Result<(), NodeError> {
        self.fault_gate()?;
        if !self.is_powered() {
            return Err(NodeError::PoweredOff);
        }
        footprint_write(self.foot_key());
        let obj = Replica {
            data,
            header: ObjectHeader { version, dirty }.into(),
        };
        let stripe = self.stripe(oid);
        let mut map = stripe.objects.write();
        // One probe: the entry is both the old length's source and the
        // slot the new replica goes into.
        let slot = map.entry(oid);
        let old_len = match &slot {
            Entry::Occupied(held) => held.get().data.len() as u64,
            Entry::Vacant(_) => 0,
        };
        let new_len = obj.data.len() as u64;
        if new_len != old_len {
            self.resize_tally(old_len, new_len)?;
        }
        slot.insert_entry(obj);
        // The write lock serialises this stripe's writers, so a plain
        // store replaces an atomic RMW.
        let writes = stripe.writes.load(Ordering::Relaxed);
        stripe.writes.store(writes + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Read a replica. Fails when powered off or missing.
    pub fn get(&self, oid: ObjectId) -> Result<StoredObject, NodeError> {
        self.fault_gate()?;
        if !self.is_powered() {
            return Err(NodeError::PoweredOff);
        }
        footprint_read(self.foot_key());
        let stripe = self.stripe(oid);
        // The counter shares the stripe lock's line, which the read lock
        // below writes anyway.
        stripe.reads.fetch_add(1, Ordering::Relaxed);
        stripe
            .objects
            .read()
            .get(&oid)
            .map(|held| StoredObject {
                data: held.data.clone(),
                header: held.header.unpack(),
            })
            .ok_or(NodeError::NotFound)
    }

    /// Drop a replica (after it migrated away). Succeeds even when the
    /// node is off — the coordinator may reconcile state lazily; a real
    /// system would queue the delete until power-on.
    pub fn remove(&self, oid: ObjectId) -> bool {
        footprint_write(self.foot_key());
        let mut map = self.stripe(oid).objects.write();
        if let Some(obj) = map.remove(&oid) {
            self.bytes_stored
                .fetch_sub(obj.data.len() as u64, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Advance the stored header of `oid` to `version` (never
    /// downgrading), e.g. after a re-integration confirmed this replica's
    /// placement at the new version. Returns true when the header was
    /// updated.
    pub fn restamp(&self, oid: ObjectId, version: VersionId, dirty: bool) -> bool {
        footprint_write(self.foot_key());
        let mut map = self.stripe(oid).objects.write();
        match map.get_mut(&oid) {
            Some(obj) if obj.header.unpack().version <= version => {
                obj.header = ObjectHeader { version, dirty }.into();
                true
            }
            _ => false,
        }
    }

    /// Simulate a disk-losing crash: all replicas on this node vanish and
    /// the node goes dark. Returns how many objects were lost locally.
    pub fn crash(&self) -> usize {
        footprint_write(self.foot_key());
        self.set_powered(false);
        // Every stripe's lock, in index order, held until the tally is
        // reset: no write can land in a cleared stripe and then have its
        // bytes wiped by the reset below.
        let mut maps = self.stripes.each_ref().map(|s| s.objects.write());
        let lost = maps.iter().map(|m| m.len()).sum();
        maps.iter_mut().for_each(|m| m.clear());
        // Counter reset on crash: `bytes_stored` is constructed via
        // `counter_u64`, which is what licenses the relaxed store — the
        // node is already dark, so no reader can order against it.
        self.bytes_stored.store(0, Ordering::Relaxed);
        lost
    }

    /// Does this node hold `oid` (regardless of power state)?
    pub fn holds(&self, oid: ObjectId) -> bool {
        footprint_read(self.foot_key());
        self.stripe(oid).objects.read().contains_key(&oid)
    }

    /// Number of replicas stored (stripe by stripe, so exact only while
    /// no write is in flight).
    pub fn object_count(&self) -> usize {
        footprint_read(self.foot_key());
        self.stripes.iter().map(|s| s.objects.read().len()).sum()
    }

    /// Bytes stored: the sum of the stored replicas' payload lengths,
    /// never above [`StorageNode::capacity`].
    pub fn bytes_stored(&self) -> u64 {
        footprint_read(self.foot_key());
        self.bytes_stored.load(Ordering::Relaxed)
    }

    /// (reads, writes) op counters, summed over the stripes.
    pub fn op_counts(&self) -> (u64, u64) {
        self.stripes.iter().fold((0, 0), |(r, w), s| {
            (
                r + s.reads.load(Ordering::Relaxed),
                w + s.writes.load(Ordering::Relaxed),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> StorageNode {
        StorageNode::new(ServerId(3))
    }

    #[test]
    fn put_get_roundtrip() {
        let n = node();
        n.put(ObjectId(1), Bytes::from("payload"), VersionId(2), true)
            .unwrap();
        let got = n.get(ObjectId(1)).unwrap();
        assert_eq!(&got.data[..], b"payload");
        assert_eq!(got.header.version, VersionId(2));
        assert!(got.header.dirty);
        assert_eq!(n.object_count(), 1);
        assert_eq!(n.bytes_stored(), 7);
    }

    #[test]
    fn powered_off_rejects_io_but_keeps_data() {
        let n = node();
        n.put(ObjectId(1), Bytes::from("x"), VersionId(1), false)
            .unwrap();
        n.set_powered(false);
        assert_eq!(n.get(ObjectId(1)), Err(NodeError::PoweredOff));
        assert_eq!(
            n.put(ObjectId(2), Bytes::from("y"), VersionId(1), false),
            Err(NodeError::PoweredOff)
        );
        assert!(n.holds(ObjectId(1)), "data survives power-off");
        n.set_powered(true);
        assert_eq!(&n.get(ObjectId(1)).unwrap().data[..], b"x");
    }

    #[test]
    fn overwrite_updates_byte_accounting() {
        let n = node();
        n.put(ObjectId(1), Bytes::from("aaaa"), VersionId(1), false)
            .unwrap();
        n.put(ObjectId(1), Bytes::from("bb"), VersionId(2), true)
            .unwrap();
        assert_eq!(n.bytes_stored(), 2);
        assert_eq!(n.object_count(), 1);
        assert_eq!(n.get(ObjectId(1)).unwrap().header.version, VersionId(2));
    }

    #[test]
    fn remove_frees_bytes() {
        let n = node();
        n.put(ObjectId(1), Bytes::from("abc"), VersionId(1), false)
            .unwrap();
        assert!(n.remove(ObjectId(1)));
        assert!(!n.remove(ObjectId(1)));
        assert_eq!(n.bytes_stored(), 0);
        assert_eq!(n.get(ObjectId(1)), Err(NodeError::NotFound));
    }

    #[test]
    fn capacity_is_enforced() {
        let n = StorageNode::with_capacity(ServerId(0), 10);
        n.put(ObjectId(1), Bytes::from("12345678"), VersionId(1), false)
            .unwrap();
        // 8 + 8 > 10: rejected.
        assert!(matches!(
            n.put(ObjectId(2), Bytes::from("12345678"), VersionId(1), false),
            Err(NodeError::DiskFull { capacity: 10, .. })
        ));
        // Overwriting the same object within budget is fine.
        n.put(ObjectId(1), Bytes::from("123456789a"), VersionId(2), false)
            .unwrap();
        assert_eq!(n.bytes_stored(), 10);
        // Removing frees room.
        n.remove(ObjectId(1));
        n.put(ObjectId(2), Bytes::from("xy"), VersionId(2), false)
            .unwrap();
    }

    #[test]
    fn restamp_never_downgrades() {
        let n = node();
        n.put(ObjectId(1), Bytes::from("x"), VersionId(5), true)
            .unwrap();
        assert!(n.restamp(ObjectId(1), VersionId(7), false));
        assert_eq!(n.get(ObjectId(1)).unwrap().header.version, VersionId(7));
        assert!(!n.get(ObjectId(1)).unwrap().header.dirty);
        // Older stamp is refused.
        assert!(!n.restamp(ObjectId(1), VersionId(6), true));
        assert_eq!(n.get(ObjectId(1)).unwrap().header.version, VersionId(7));
        // Missing object: no-op.
        assert!(!n.restamp(ObjectId(9), VersionId(1), false));
    }

    #[test]
    fn crash_loses_data_and_powers_off() {
        let n = node();
        n.put(ObjectId(1), Bytes::from("x"), VersionId(1), false)
            .unwrap();
        assert_eq!(n.crash(), 1);
        assert!(!n.is_powered());
        assert!(!n.holds(ObjectId(1)));
        assert_eq!(n.bytes_stored(), 0);
        // Power back on: disk replaced, still empty.
        n.set_powered(true);
        assert_eq!(n.get(ObjectId(1)), Err(NodeError::NotFound));
    }

    #[test]
    fn fault_gate_injects_errors_then_crashes() {
        use crate::counters::Counters;
        use crate::fault::{FaultInjector, FaultPlan, NodeFaultSpec};
        let mut plan = FaultPlan::default();
        plan.set_node(
            3,
            NodeFaultSpec {
                io_error_prob: 1.0,
                io_error_until_op: 2,
                crash_at_op: Some(4),
            },
        );
        let counters = Arc::new(Counters::default());
        let inj = Arc::new(FaultInjector::new(4, plan, counters.clone()));
        let n = StorageNode::with_capacity_and_faults(ServerId(3), u64::MAX, Some(inj));
        // Ops 0 and 1 fail with transient errors; nothing is stored.
        assert_eq!(
            n.put(ObjectId(1), Bytes::from("x"), VersionId(1), false),
            Err(NodeError::Io)
        );
        assert_eq!(n.get(ObjectId(1)), Err(NodeError::Io));
        assert!(!n.holds(ObjectId(1)));
        // Ops 2 and 3 are past the error window and succeed.
        n.put(ObjectId(1), Bytes::from("x"), VersionId(1), false)
            .unwrap();
        assert!(n.get(ObjectId(1)).is_ok());
        // Op 4 is the crash: disk lost, node dark, caller sees Io.
        assert_eq!(n.get(ObjectId(1)), Err(NodeError::Io));
        assert!(!n.is_powered());
        assert!(!n.holds(ObjectId(1)));
        assert_eq!(counters.snapshot().crashes, 1);
        assert_eq!(counters.snapshot().io_errors, 2);
    }

    #[test]
    fn missing_object_is_not_found() {
        let n = node();
        assert_eq!(n.get(ObjectId(9)), Err(NodeError::NotFound));
    }
}
