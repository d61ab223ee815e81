//! Failure handling and the one re-replication routine.
//!
//! Elasticity and fault tolerance share machinery in consistent-hashing
//! stores — Sheepdog's "recovery feature … is mainly utilized for
//! tolerating failures or expanding the cluster size" (§IV). The elastic
//! design deliberately re-uses membership versioning for power states;
//! this module adds the *failure* side: a crashed node loses its disk
//! contents (unlike a powered-down node, whose data survives), and a
//! repair pass re-creates the lost replicas from survivors at the current
//! placement.
//!
//! Repair, [`Cluster::heal_dirty`] and the re-integration executor
//! share this module's node sweep, copy loop and stamp.

use crate::cluster::Cluster;
use crate::node::{StorageNode, StoredObject};
use crate::retry::Deadline;
use ech_core::dirty::HeaderSource;
use ech_core::ids::{ObjectId, ServerId, VersionId};
use ech_core::membership::PowerState;
use ech_core::placement::Placement;

/// Outcome of a repair scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Objects examined.
    pub scanned: usize,
    /// Replicas re-created from surviving copies.
    pub recreated: usize,
    /// Payload bytes copied.
    pub bytes: u64,
    /// Objects with **no** surviving replica anywhere (data loss).
    pub unrecoverable: usize,
}

impl Cluster {
    /// Crash `server`: its disk contents are lost and it leaves the
    /// placement (a new membership version is recorded). Returns the
    /// number of replicas that vanished with it.
    ///
    /// Unlike [`Cluster::resize`], a crash may hit any rank, so the
    /// resulting membership is not necessarily an expansion-chain prefix.
    pub fn crash_node(&self, server: ServerId) -> usize {
        // Order matters: take the server out of placement first so
        // concurrent writes stop targeting it, then drop its data.
        self.update_view(|view| {
            let table = view
                .current_membership()
                .with_state(server, PowerState::Off);
            view.record_membership(table);
        });
        self.node(server).map_or(0, |n| n.crash())
    }

    /// Bring a crashed (or powered-down) server back with an empty disk.
    /// Records a new membership version including it.
    pub fn revive_node(&self, server: ServerId) {
        self.update_view(|view| {
            let table = view.current_membership().with_state(server, PowerState::On);
            view.record_membership(table);
        });
        if let Ok(n) = self.node(server) {
            n.set_powered(true);
        }
    }

    /// Re-replication repair: for every tracked object, ensure each
    /// replica required by the *current* placement physically exists,
    /// copying from a fresh surviving replica when it does not. This is
    /// the clean-up work original CH must finish before tolerating
    /// another departure (§II-C) — and the work the primary design
    /// avoids for *power-downs* but still needs for *crashes*.
    ///
    /// Each object costs one `sweep`, one read per powered node; the
    /// copies a rewrite superseded are removed before the copy loop.
    pub fn repair(&self) -> RepairStats {
        let mut stats = RepairStats::default();
        for oid in self.headers().all_objects() {
            stats.scanned += 1;
            let (Some(header), Ok(placement)) = (self.headers().header(oid), self.locate(oid))
            else {
                continue;
            };
            // One budget per repaired object, shared by the sweep and
            // every copy (rule D8): a dark fabric costs one deadline per
            // object, not one per read.
            let deadline = self.op_deadline();
            let (fresh, stale) = self.sweep(oid, header.version, deadline);
            for node in stale {
                // ech-allow(D7): stale-replica GC is a reconciliation message the coordinator repeats at will; it rides the reliable queue and bypasses the fabric (DESIGN §8)
                node.remove(oid);
            }
            let Some(obj) = fresh else {
                // A fresh copy may be trapped on a powered-down (not
                // crashed) node — readable again after power-up; only
                // count as unrecoverable when no node holds one at all.
                let trapped = self.nodes().iter().any(|n| !n.is_powered() && n.holds(oid));
                if !trapped {
                    stats.unrecoverable += 1;
                }
                continue;
            };
            self.copy_to_missing(oid, &obj, &placement, deadline, &mut stats);
        }
        stats
    }

    /// Read `oid` once from every powered node in index order, retried
    /// under the caller's `deadline` so an injected fault cannot hide a
    /// survivor. Returns the first copy stamped at or above `header`
    /// (the rule reads use) and the nodes whose copy is older.
    pub(crate) fn sweep(
        &self,
        oid: ObjectId,
        header: VersionId,
        deadline: Deadline,
    ) -> (Option<StoredObject>, Vec<&StorageNode>) {
        let (mut fresh, mut stale) = (None, Vec::new());
        for node in self.nodes().iter().filter(|n| n.is_powered()) {
            let token = oid.raw() ^ ((node.id().index() as u64) << 48) ^ 0x6EA1_0001;
            if let (Ok(obj), _) = self.call(node.id(), node, deadline, token, |n| n.get(oid)) {
                if obj.header.version < header {
                    stale.push(&**node);
                } else {
                    fresh.get_or_insert(obj);
                }
            }
        }
        (fresh, stale)
    }

    /// Put `obj`, at its own stamp, on every server of `placement` that
    /// lacks `oid`, retried under the caller's `deadline`; count the
    /// copies that land into `stats` and leave failures to the next pass.
    pub(crate) fn copy_to_missing(
        &self,
        oid: ObjectId,
        obj: &StoredObject,
        placement: &Placement,
        deadline: Deadline,
        stats: &mut RepairStats,
    ) {
        for &target in placement.servers() {
            let Ok(node) = self.node(target) else {
                continue;
            };
            if node.holds(oid) {
                continue;
            }
            let token = oid.raw() ^ ((target.index() as u64) << 48) ^ 0x6EA1_0002;
            let (put, _) = self.call(target, node, deadline, token, |n| {
                n.put(oid, obj.data.clone(), obj.header.version, obj.header.dirty)
            });
            if put.is_ok() {
                stats.recreated += 1;
                stats.bytes += obj.data.len() as u64;
            }
        }
    }

    /// Stamp `oid` at `at`, clean unless `dirty`: the header first, then
    /// every replica on `servers`. Callers stamp only once their copies
    /// landed, so no reader meets a header no replica satisfies.
    pub(crate) fn stamp(&self, oid: ObjectId, at: VersionId, dirty: bool, servers: &[ServerId]) {
        self.headers().record_write(oid, at, dirty);
        for &server in servers {
            if let Ok(node) = self.node(server) {
                // ech-allow(D7): header restamps are reconciliation messages the coordinator repeats at will; they ride the reliable queue and bypass the fabric (DESIGN §8)
                node.restamp(oid, at, dirty);
            }
        }
    }

    /// Does every server of `placement` physically hold `oid`?
    pub(crate) fn holds_all(&self, oid: ObjectId, placement: &Placement) -> bool {
        placement
            .servers()
            .iter()
            .all(|&s| self.node(s).is_ok_and(|n| n.holds(oid)))
    }

    /// Count objects whose current placement is missing at least one
    /// physical replica (the under-replication metric repair drives to
    /// zero).
    pub fn under_replicated(&self) -> usize {
        self.headers()
            .all_objects()
            .into_iter()
            .filter(|&oid| !self.is_fully_placed(oid))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::{Cluster, ClusterConfig};
    use bytes::Bytes;
    use ech_core::dirty::HeaderSource;
    use ech_core::ids::{ObjectId, ServerId};

    fn payload(oid: u64) -> Bytes {
        Bytes::from(format!("payload-{oid}"))
    }

    fn loaded_cluster(objects: u64) -> std::sync::Arc<Cluster> {
        let c = Cluster::new(ClusterConfig::paper());
        for i in 0..objects {
            c.put(ObjectId(i), payload(i)).unwrap();
        }
        c
    }

    #[test]
    fn crash_then_repair_restores_replication() {
        let c = loaded_cluster(400);
        let lost = c.crash_node(ServerId(5));
        assert!(lost > 0, "rank 6 should have held replicas");
        assert!(c.under_replicated() > 0);
        // Everything still readable from the surviving replica.
        for i in 0..400u64 {
            assert_eq!(c.get(ObjectId(i)).unwrap(), payload(i));
        }
        let stats = c.repair();
        assert_eq!(stats.scanned, 400);
        assert!(stats.recreated > 0);
        assert_eq!(stats.unrecoverable, 0);
        assert_eq!(c.under_replicated(), 0);
    }

    #[test]
    fn crashing_a_primary_is_survivable() {
        let c = loaded_cluster(300);
        // Rank 1 is a primary holding ~half of one copy.
        let lost = c.crash_node(ServerId(0));
        assert!(lost > 50);
        for i in 0..300u64 {
            assert_eq!(c.get(ObjectId(i)).unwrap(), payload(i), "object {i}");
        }
        let stats = c.repair();
        assert_eq!(stats.unrecoverable, 0);
        assert_eq!(c.under_replicated(), 0);
        // The placement invariant is restored on the surviving membership:
        // every object fully placed on active servers.
        for i in 0..300u64 {
            assert!(c.is_fully_placed(ObjectId(i)));
        }
    }

    #[test]
    fn double_crash_with_r2_loses_only_doubly_hit_objects() {
        let c = loaded_cluster(1_000);
        // Record which objects had both replicas on servers 6 and 7.
        let doomed: Vec<u64> = (0..1_000u64)
            .filter(|&i| {
                let p = c.locate(ObjectId(i)).unwrap();
                p.contains(ServerId(6)) && p.contains(ServerId(7))
            })
            .collect();
        c.crash_node(ServerId(6));
        // Repair between crashes would save everything; crash the second
        // node immediately to create real loss.
        c.crash_node(ServerId(7));
        let stats = c.repair();
        assert_eq!(
            stats.unrecoverable,
            doomed.len(),
            "exactly the doubly-hit objects are lost"
        );
        for i in 0..1_000u64 {
            let oid = ObjectId(i);
            if doomed.contains(&i) {
                assert!(c.get(oid).is_err(), "object {i} should be gone");
            } else {
                assert_eq!(c.get(oid).unwrap(), payload(i), "object {i}");
            }
        }
    }

    #[test]
    fn repair_between_crashes_prevents_loss() {
        let c = loaded_cluster(500);
        c.crash_node(ServerId(6));
        let s1 = c.repair();
        assert_eq!(s1.unrecoverable, 0);
        c.crash_node(ServerId(7));
        let s2 = c.repair();
        assert_eq!(s2.unrecoverable, 0, "repairing between crashes saves all");
        for i in 0..500u64 {
            assert_eq!(c.get(ObjectId(i)).unwrap(), payload(i));
        }
    }

    #[test]
    fn revive_rejoins_with_empty_disk() {
        let c = loaded_cluster(200);
        c.crash_node(ServerId(4));
        c.repair();
        c.revive_node(ServerId(4));
        // The revived node is placement-eligible again; a repair pass
        // moves its share of replicas back.
        let stats = c.repair();
        assert!(stats.recreated > 0, "revived node should receive replicas");
        assert_eq!(c.under_replicated(), 0);
        assert!(c.nodes()[4].object_count() > 0);
    }

    #[test]
    fn under_replicated_accounting_through_crash_revive_repair_cycles() {
        let c = loaded_cluster(300);
        assert_eq!(c.under_replicated(), 0);
        c.crash_node(ServerId(3));
        assert!(c.under_replicated() > 0, "crash strands replicas");
        c.repair();
        assert_eq!(c.under_replicated(), 0, "repair restores replication");
        // Revive with an empty disk: placement immediately includes the
        // server again, so its share of objects counts as
        // under-replicated until the next repair pass moves them back.
        c.revive_node(ServerId(3));
        assert!(c.under_replicated() > 0, "revived disk is empty");
        c.repair();
        assert_eq!(c.under_replicated(), 0);
        // A second cycle on a different server behaves identically.
        c.crash_node(ServerId(8));
        assert!(c.under_replicated() > 0);
        c.repair();
        assert_eq!(c.under_replicated(), 0);
        c.revive_node(ServerId(8));
        c.repair();
        assert_eq!(c.under_replicated(), 0);
        for i in 0..300u64 {
            assert_eq!(c.get(ObjectId(i)).unwrap(), payload(i), "object {i}");
        }
    }

    #[test]
    fn repair_is_idempotent() {
        let c = loaded_cluster(250);
        c.crash_node(ServerId(2));
        let first = c.repair();
        assert!(first.recreated > 0);
        assert_eq!(first.unrecoverable, 0);
        let second = c.repair();
        assert_eq!(second.scanned, first.scanned);
        assert_eq!(second.recreated, 0, "second pass must find nothing to do");
        assert_eq!(second.bytes, 0);
        assert_eq!(second.unrecoverable, 0);
        assert_eq!(c.under_replicated(), 0);
    }

    /// Node reads served by every node, summed.
    fn reads(c: &Cluster) -> u64 {
        c.nodes().iter().map(|n| n.op_counts().0).sum()
    }

    #[test]
    fn repair_reads_each_powered_node_once_per_object() {
        // Object 7 lives on servers 0 and 7: crashing server 0 leaves
        // the only copy late in the index-order sweep.
        let c = Cluster::new(ClusterConfig::paper());
        let oid = ObjectId(7);
        c.put(oid, payload(7)).unwrap();
        let (lost, survivor) = (ServerId(0), ServerId(7));
        let mut holders = c.locate(oid).unwrap().servers().to_vec();
        holders.sort();
        assert_eq!(holders, [lost, survivor]);
        c.crash_node(lost);
        let survivor_before = c.nodes()[survivor.index()].op_counts().0;
        let before = reads(&c);
        let stats = c.repair();
        assert_eq!(stats.recreated, 1);
        assert_eq!(
            c.nodes()[survivor.index()].op_counts().0 - survivor_before,
            1,
            "the survivor is read once: its one read is both probe and source"
        );
        assert_eq!(reads(&c) - before, 9, "one read per powered node");
    }

    #[test]
    fn repair_of_fully_placed_objects_reads_each_node_once() {
        let c = loaded_cluster(100);
        let before = reads(&c);
        let stats = c.repair();
        assert_eq!(stats.recreated, 0);
        assert_eq!(reads(&c) - before, 100 * 10);
    }

    #[test]
    fn repair_copies_a_replica_stamped_past_the_header() {
        let c = loaded_cluster(1);
        let oid = ObjectId(0);
        let header = c.headers().header(oid).unwrap().version;
        let holders = c.locate(oid).unwrap();
        let (ahead, lost) = (holders.servers()[1], holders.servers()[0]);
        assert!(c.nodes()[ahead.index()].restamp(oid, header.next(), false));
        c.crash_node(lost);
        assert_eq!(c.get(oid).unwrap(), payload(0), "reads accept the copy");
        let stats = c.repair();
        assert_eq!(stats.unrecoverable, 0, "the copy reads serve is a source");
        assert_eq!(stats.recreated, 1);
        assert_eq!(c.under_replicated(), 0);
    }

    #[test]
    fn powered_down_data_is_not_counted_unrecoverable() {
        let c = loaded_cluster(200);
        // Power down (not crash) the tail: their data survives.
        c.resize(6);
        // Crash an active holder: some objects may now have their only
        // live replica on a powered-down node — repair must not call them
        // unrecoverable (the disk still has them).
        c.crash_node(ServerId(2));
        let stats = c.repair();
        assert_eq!(
            stats.unrecoverable, 0,
            "data on powered-down disks is recoverable"
        );
    }
}
