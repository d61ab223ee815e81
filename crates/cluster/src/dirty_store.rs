//! The distributed dirty table and header store, backed by `ech-kvstore`.
//!
//! §IV: "we use Redis, an in-memory key-value store, for managing the
//! dirty table. The dirty table is managed using the LIST data type...
//! Each dirty data entry is inserted using RPUSH... a LRANGE command is
//! used to fetch the (OID, version) pair... a LPOP command is used to
//! remove" it. This module is that wiring: the same three verbs on the
//! store's typed dirty log, with object headers kept in the same store's
//! typed, object-sharded header table alongside.

use crate::fault::{Clock, SystemClock};
use crate::sync::{footprint, footprint_read, footprint_write};
use ech_core::dirty::{DirtyEntry, DirtyTable, HeaderSource, ObjectHeader};
use ech_core::ids::{ObjectId, VersionId};
use ech_kvstore::{KvError, KvStore};
use std::sync::Arc;

/// Run a kv operation through transient shard outages. Outage windows
/// live in kv-op-count space and every attempt advances the counter, so
/// retrying always exits a finite window; the budget only guards against
/// a misconfigured fault plan. Metadata must not be silently dropped, so
/// anything else (type confusion, exhausted budget) still panics.
fn kv_retry<T>(clock: &dyn Clock, what: &str, op: impl Fn() -> Result<T, KvError>) -> T {
    let mut last = None;
    for _ in 0..256 {
        match op() {
            Ok(v) => return v,
            Err(e @ KvError::Unavailable { .. }) => {
                last = Some(e);
                clock.sleep(std::time::Duration::from_micros(20));
            }
            // ech-allow(D2): metadata corruption (type confusion on the
            // dirty-table keys) is unrecoverable; losing dirty entries
            // silently would break Algorithm 2's draining guarantee.
            Err(e) => panic!("{what}: {e}"),
        }
    }
    match last {
        // ech-allow(D2): a 256-attempt budget only exhausts under a
        // misconfigured fault plan; surfacing loudly beats losing metadata.
        Some(e) => panic!("{what}: {e}"),
        // ech-allow(D2): the loop body returns on Ok and records on Err.
        None => unreachable!("loop only exits with an error"),
    }
}

/// Dirty table living in the shared key-value store.
///
/// Clones share the same underlying store, so the write path (logger) and
/// the re-integration engine can hold their own handles.
#[derive(Debug, Clone)]
pub struct KvDirtyTable {
    kv: Arc<KvStore>,
    clock: Arc<dyn Clock>,
}

impl KvDirtyTable {
    /// Wrap a store, sleeping retries on the wall clock.
    pub fn new(kv: Arc<KvStore>) -> Self {
        KvDirtyTable::with_clock(kv, Arc::new(SystemClock::new()))
    }

    /// Wrap a store, sleeping brown-out retries on `clock`.
    pub fn with_clock(kv: Arc<KvStore>, clock: Arc<dyn Clock>) -> Self {
        KvDirtyTable { kv, clock }
    }

    /// Append `entry` through a shared handle: the push is atomic in the
    /// store, so the write logger needs neither `&mut self` nor a handle
    /// of its own. [`DirtyTable::push_back`] is this call.
    pub fn push_entry(&self, entry: DirtyEntry) {
        footprint_write(footprint::DIRTY);
        kv_retry(&*self.clock, "RPUSH dirty entry", || {
            self.kv.dirty_push(entry)
        });
    }
}

impl DirtyTable for KvDirtyTable {
    fn push_back(&mut self, entry: DirtyEntry) {
        self.push_entry(entry);
    }

    fn get(&self, index: usize) -> Option<DirtyEntry> {
        self.get_range(index, 1).first().copied()
    }

    fn pop_front(&mut self) -> Option<DirtyEntry> {
        self.pop_front_n(1).first().copied()
    }

    fn get_range(&self, start: usize, count: usize) -> Vec<DirtyEntry> {
        if count == 0 {
            return Vec::new();
        }
        footprint_read(footprint::DIRTY);
        kv_retry(&*self.clock, "LRANGE dirty entries", || {
            self.kv.dirty_range(start, count)
        })
    }

    fn pop_front_n(&mut self, count: usize) -> Vec<DirtyEntry> {
        if count == 0 {
            return Vec::new();
        }
        footprint_write(footprint::DIRTY);
        kv_retry(&*self.clock, "LPOP dirty entries", || {
            self.kv.dirty_pop_n(count)
        })
    }

    fn len(&self) -> usize {
        footprint_read(footprint::DIRTY);
        kv_retry(&*self.clock, "LLEN dirty table", || self.kv.dirty_len())
    }
}

/// Object-header map in the shared key-value store: one fixed-width
/// record per object in the store's header table, sharded by object id.
#[derive(Debug, Clone)]
pub struct KvHeaderStore {
    kv: Arc<KvStore>,
    clock: Arc<dyn Clock>,
}

impl KvHeaderStore {
    /// Wrap a store, sleeping retries on the wall clock.
    pub fn new(kv: Arc<KvStore>) -> Self {
        KvHeaderStore::with_clock(kv, Arc::new(SystemClock::new()))
    }

    /// Wrap a store, sleeping brown-out retries on `clock`.
    pub fn with_clock(kv: Arc<KvStore>, clock: Arc<dyn Clock>) -> Self {
        KvHeaderStore { kv, clock }
    }

    /// Record a write of `oid` at `version` with the given dirty bit.
    pub fn record_write(&self, oid: ObjectId, version: VersionId, dirty: bool) {
        footprint_write(footprint::HEADERS);
        kv_retry(&*self.clock, "put object header", || {
            self.kv.header_put(oid, ObjectHeader { version, dirty })
        });
    }

    /// Number of tracked objects.
    pub fn len(&self) -> usize {
        footprint_read(footprint::HEADERS);
        kv_retry(&*self.clock, "count object headers", || {
            self.kv.header_len()
        })
    }

    /// All tracked object ids, sorted. Repair scans use this to
    /// enumerate the object population; the sort pins the scan order
    /// (the kv header table iterates in process-random order), which
    /// keeps fault-injection replays byte-identical across runs.
    pub fn all_objects(&self) -> Vec<ObjectId> {
        footprint_read(footprint::HEADERS);
        kv_retry(&*self.clock, "list object headers", || self.kv.header_ids())
    }

    /// True when no headers are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl HeaderSource for KvHeaderStore {
    fn header(&self, oid: ObjectId) -> Option<ObjectHeader> {
        footprint_read(footprint::HEADERS);
        kv_retry(&*self.clock, "get object header", || {
            self.kv.header_get(oid)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (KvDirtyTable, KvHeaderStore) {
        let kv = Arc::new(KvStore::new(4));
        (KvDirtyTable::new(kv.clone()), KvHeaderStore::new(kv))
    }

    #[test]
    fn dirty_table_round_trips_through_redis_ops() {
        let (mut t, _) = table();
        assert!(t.is_empty());
        for (oid, ver) in [(100u64, 8u64), (200, 8), (10010, 9)] {
            t.push_back(DirtyEntry::new(ObjectId(oid), VersionId(ver)));
        }
        assert_eq!(t.len(), 3);
        // LRANGE-style positional fetch does not consume.
        assert_eq!(t.get(0).unwrap().oid, ObjectId(100));
        assert_eq!(t.get(2).unwrap().version, VersionId(9));
        assert_eq!(t.len(), 3);
        // LPOP consumes from the head.
        assert_eq!(t.pop_front().unwrap().oid, ObjectId(100));
        assert_eq!(t.len(), 2);
        assert!(t.get(5).is_none());
    }

    #[test]
    fn batched_range_and_pop_match_sequential_ops() {
        let (mut t, _) = table();
        let entries: Vec<DirtyEntry> = (0..6u64)
            .map(|i| DirtyEntry::new(ObjectId(100 + i), VersionId(2 + i / 3)))
            .collect();
        for &e in &entries {
            t.push_back(e);
        }
        assert_eq!(t.get_range(0, 6), entries);
        assert_eq!(t.get_range(4, 10), entries[4..6]);
        assert!(t.get_range(6, 2).is_empty());
        assert!(t.get_range(0, 0).is_empty());
        assert_eq!(t.pop_front_n(4), entries[0..4]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.pop_front_n(100), entries[4..6]);
        assert!(t.is_empty());
    }

    #[test]
    fn the_string_list_under_the_old_key_is_not_the_dirty_table() {
        // A replace, not a fork: nothing reads the LIST the table used to
        // be, so a record pushed there is invisible rather than malformed.
        let kv = Arc::new(KvStore::new(4));
        let mut t = KvDirtyTable::new(kv.clone());
        kv.rpush("ech:dirty", "garbage").unwrap();
        assert_eq!(t.len(), 0);
        assert!(t.get_range(0, 10).is_empty());
        assert!(t.pop_front().is_none());

        let e = DirtyEntry::new(ObjectId(3), VersionId(3));
        t.push_back(e);
        assert_eq!(t.len(), 1);
        assert_eq!(t.pop_front_n(10), vec![e]);
        assert!(t.is_empty());
        // And the table never wrote to the LIST either.
        assert_eq!(kv.lpop_n("ech:dirty", 10).unwrap().len(), 1);
    }

    #[test]
    fn header_store_tracks_latest_version_and_dirty_bit() {
        let (_, h) = table();
        assert!(h.header(ObjectId(1)).is_none());
        h.record_write(ObjectId(1), VersionId(9), true);
        let hdr = h.header(ObjectId(1)).unwrap();
        assert_eq!(hdr.version, VersionId(9));
        assert!(hdr.dirty);
        h.record_write(ObjectId(1), VersionId(10), true);
        assert_eq!(h.header(ObjectId(1)).unwrap().version, VersionId(10));
        h.record_write(ObjectId(1), VersionId(11), false);
        let hdr = h.header(ObjectId(1)).unwrap();
        assert!(!hdr.dirty);
        assert_eq!(hdr.version, VersionId(11));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn all_objects_enumerates_headers() {
        let (_, h) = table();
        for oid in [5u64, 9, 10010] {
            h.record_write(ObjectId(oid), VersionId(3), true);
        }
        assert_eq!(
            h.all_objects(),
            vec![ObjectId(5), ObjectId(9), ObjectId(10010)]
        );
    }

    #[test]
    fn browned_out_header_shard_retries_on_the_clock_and_other_shards_do_not_sleep() {
        use crate::counters::Counters;
        use crate::fault::{FaultInjector, FaultPlan, ShardOutage, VirtualClock};
        let kv = Arc::new(KvStore::new(4));
        let down = kv.header_shard_of(ObjectId(1));
        let elsewhere = (2..100)
            .map(ObjectId)
            .find(|&o| kv.header_shard_of(o) != down)
            .unwrap();
        // Kv ops 0..3 find the shard dark; every attempt is one op.
        let plan = FaultPlan {
            kv_outages: vec![ShardOutage {
                shard: down,
                from_op: 0,
                until_op: 3,
            }],
            ..FaultPlan::default()
        };
        let clock = Arc::new(VirtualClock::new());
        let counters = Arc::new(Counters::default());
        let inj = Arc::new(FaultInjector::new(4, plan, counters.clone()));
        kv.set_fault_hook(Some(inj));
        let h = KvHeaderStore::with_clock(kv, clock.clone());

        h.record_write(elsewhere, VersionId(2), true);
        assert_eq!(clock.now(), std::time::Duration::ZERO, "healthy shard");
        assert_eq!(counters.snapshot().kv_unavailable, 0);

        // Ops 1 and 2 are refused and slept off, op 3 lands.
        h.record_write(ObjectId(1), VersionId(2), true);
        assert_eq!(counters.snapshot().kv_unavailable, 2);
        assert_eq!(clock.now(), std::time::Duration::from_micros(40));
        assert_eq!(
            h.header(ObjectId(1)),
            Some(ObjectHeader {
                version: VersionId(2),
                dirty: true
            })
        );
        assert_eq!(clock.now(), std::time::Duration::from_micros(40));
    }

    #[test]
    fn concurrent_record_writes_on_disjoint_oids_lose_no_update() {
        const PER_THREAD: u64 = 2_000;
        let (_, h) = table();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (h, start) = (&h, &start);
                s.spawn(move || {
                    start.wait();
                    // Interleaved ids (t, t+2, ...), each written twice:
                    // the second write must win on every one of them.
                    for i in (t..2 * PER_THREAD).step_by(2) {
                        h.record_write(ObjectId(i), VersionId(1), true);
                        h.record_write(ObjectId(i), VersionId(2 + t), false);
                    }
                });
            }
        });
        let all = h.all_objects();
        assert_eq!(all, (0..2 * PER_THREAD).map(ObjectId).collect::<Vec<_>>());
        assert_eq!(h.len(), all.len());
        for oid in all {
            let want = ObjectHeader {
                version: VersionId(2 + oid.raw() % 2),
                dirty: false,
            };
            assert_eq!(h.header(oid), Some(want), "{oid:?}");
        }
    }

    #[test]
    fn clones_share_the_same_table() {
        let (mut a, _) = table();
        let mut b = a.clone();
        a.push_back(DirtyEntry::new(ObjectId(5), VersionId(2)));
        assert_eq!(b.len(), 1);
        assert_eq!(b.pop_front().unwrap().oid, ObjectId(5));
        assert!(a.is_empty());
    }
}
