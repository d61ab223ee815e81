//! The sharded, thread-safe key-value store.
//!
//! §III-E2: "The dirty table is maintained in a distributed key-value
//! store across the storage servers to balance the storage usage and the
//! lookup load." We model that distribution with a consistent-hashing
//! ring over the store's shards — the same ring machinery the data path
//! uses — so keys spread across shards exactly the way objects spread
//! across servers. Each shard is an independently locked hash map, so
//! disjoint keys never contend.
//!
//! Object headers (§III-E2: the last-written version plus the dirty bit)
//! are the one record family every put and get touches, so they do not
//! go through the string key space: each shard also holds a typed
//! `ObjectId → PackedHeader` table (16 bytes a bucket), and a header
//! routes to its shard by a hash of the object id alone — no key string,
//! no ring walk, no allocation — which spreads header storage and lookup
//! load evenly over the shards.
//!
//! The dirty table (§III-E2, kept in a Redis LIST in §IV) is the other
//! record family on the write path: every write made below full power
//! appends to it. It is a typed FIFO of `DirtyEntry` records with the
//! LIST verbs the paper uses (RPUSH / LRANGE / LPOP / LLEN), served by the
//! shard its LIST key would have hashed to, so nothing is formatted on the
//! way in or parsed on the way out.

use crate::error::{KvError, KvResult};
use crate::value::Value;
use bytes::Bytes;
use ech_core::dirty::{DirtyEntry, ObjectHeader, PackedHeader};
use ech_core::hash::IdMap;
use ech_core::ids::{ObjectId, ServerId};
use ech_core::ring::HashRing;
use parking_lot::RwLock;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The key the dirty table had as a LIST: it still names the shard that
/// serves the typed log, so a fault plan aimed at that shard darkens it.
const DIRTY_LOG_HOME: &str = "ech:dirty";

/// One shard: a lock around a key space slice, and the shard's slice of
/// the object-header table.
#[derive(Debug, Default)]
struct Shard {
    map: RwLock<HashMap<String, Value>>,
    headers: HeaderSlice,
}

/// A shard's slice of the object-header table: its lock and its header
/// op counters, alone on one cache line as a node's lock stripe is. A
/// header read's shared lock writes that line anyway, so counting adds
/// no written line to the read path.
#[derive(Debug, Default)]
#[repr(align(64))]
struct HeaderSlice {
    /// Keyed by program-made ids, so no SipHash. [`IdMap`]'s hash is
    /// independent of [`KvStore::header_shard_of`]'s routing hash, which
    /// it must be: see [`ech_core::hash::IdHasher`].
    map: RwLock<IdMap<ObjectId, PackedHeader>>,
    /// Header reads served ([`KvStore::header_get`]).
    reads: AtomicU64,
    /// Header writes ([`KvStore::header_put`]); written only under
    /// `map`'s write lock.
    writes: AtomicU64,
}

const _: () = assert!(std::mem::size_of::<HeaderSlice>() == 64);

const _: () = assert!(std::mem::size_of::<(ObjectId, PackedHeader)>() == 16);

/// Availability oracle consulted before every fallible shard operation.
///
/// Implemented by the cluster's fault injector to simulate shard
/// brown-outs; defined here so `ech-kvstore` needs no dependency on the
/// cluster crate. Returning `false` makes the operation fail with
/// [`KvError::Unavailable`].
pub trait ShardFaultHook: Send + Sync {
    /// Is `shard` currently able to serve an operation?
    fn shard_available(&self, shard: usize) -> bool;
}

/// A point-in-time copy of a store's contents.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Key/value pairs sorted by key.
    entries: Vec<(String, Value)>,
    /// Object-header records sorted by object id.
    headers: Vec<(ObjectId, ObjectHeader)>,
    /// The dirty log, head first.
    dirty: Vec<DirtyEntry>,
}

impl Snapshot {
    /// Number of keys captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot captured nothing: no keys, no headers, no
    /// dirty entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.headers.is_empty() && self.dirty.is_empty()
    }

    /// The captured object headers, sorted by object id.
    pub fn headers(&self) -> &[(ObjectId, ObjectHeader)] {
        &self.headers
    }

    /// The captured dirty log, head first.
    pub fn dirty(&self) -> &[DirtyEntry] {
        &self.dirty
    }
}

/// A sharded in-memory key-value store with Redis-flavoured operations.
///
/// All operations take `&self`; interior locks make the store safe to
/// share across threads (`Arc<KvStore>` is the intended usage).
pub struct KvStore {
    shards: Vec<Shard>,
    ring: HashRing,
    /// The dirty log and the shard that serves it
    /// (`shard_of(DIRTY_LOG_HOME)`, resolved once).
    dirty: RwLock<VecDeque<DirtyEntry>>,
    dirty_shard: usize,
    fault_hook: RwLock<Option<std::sync::Arc<dyn ShardFaultHook>>>,
    /// Mirrors `fault_hook.is_some()`, so the fault-free path of every
    /// header and dirty op reads one never-written flag instead of taking
    /// a lock all clients share.
    hooked: AtomicBool,
}

/// The shard `key` hashes to on `ring`.
fn ring_shard(ring: &HashRing, key: &str) -> usize {
    let pos = ech_core::hash::mix64(ech_core::hash::fnv1a64(key.as_bytes()));
    ring.distinct_servers_from(pos)
        .next()
        .map_or(0, ServerId::index)
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore")
            .field("shards", &self.shards)
            .field(
                "fault_hook",
                &self.fault_hook.read().as_ref().map(|_| "installed"),
            )
            .finish_non_exhaustive()
    }
}

impl KvStore {
    /// A store spread over `shards` shards (one per storage server in the
    /// paper's deployment). 128 virtual nodes per shard keeps key load
    /// within a few percent of even.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let ring = HashRing::build(&vec![128u32; shards]);
        KvStore {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            dirty: RwLock::default(),
            dirty_shard: ring_shard(&ring, DIRTY_LOG_HOME),
            ring,
            fault_hook: RwLock::new(None),
            hooked: AtomicBool::new(false),
        }
    }

    /// Install (or with `None` remove) the availability hook consulted by
    /// every fallible operation. Restored stores ([`KvStore::restore`])
    /// start with no hook.
    pub fn set_fault_hook(&self, hook: Option<std::sync::Arc<dyn ShardFaultHook>>) {
        let mut slot = self.fault_hook.write();
        // Set under the slot's lock, so two installers cannot leave the
        // flag disagreeing with the slot. The flag only says whether the
        // slot is worth locking (Release here, Acquire in
        // `checked_shard_at`); the lock is what publishes the hook.
        self.hooked.store(hook.is_some(), Ordering::Release);
        *slot = hook;
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a key lives on (exposed for balance tests/metrics).
    ///
    /// The ring is built over `shards.len()` servers and `new` asserts
    /// that count is non-zero, so the walk always yields; shard 0 is a
    /// total fallback rather than a panic path.
    pub fn shard_of(&self, key: &str) -> usize {
        ring_shard(&self.ring, key)
    }

    /// Which shard an object's header lives on (exposed for balance
    /// tests and fault plans that aim at a header-serving shard).
    ///
    /// Multiply-shift range reduction of the mixed id: every shard gets
    /// an equal slice of the 64-bit hash space, and the result is below
    /// the shard count by construction.
    pub fn header_shard_of(&self, oid: ObjectId) -> usize {
        let h = u128::from(ech_core::hash::mix64(oid.raw()));
        ((h * self.shards.len() as u128) >> 64) as usize
    }

    fn shard_at(&self, index: usize) -> &Shard {
        // ech-allow(D2): callers pass `shard_of` (the ring is built over
        // exactly `self.shards.len()` servers, asserted non-empty in
        // `new`) or `header_shard_of` (a range reduction onto that same
        // length), so the bound holds by construction; a miss here is
        // memory-safety-adjacent corruption that must fail loudly, not
        // degrade.
        &self.shards[index]
    }

    /// The key's shard, for the operations no fault hook covers.
    fn shard(&self, key: &str) -> &Shard {
        self.shard_at(self.shard_of(key))
    }

    /// Shard `index`, or [`KvError::Unavailable`] when a hook reports it
    /// down. Callers resolve the index once and get both the availability
    /// check and the access from it; the fault-free path is one flag load
    /// and takes no lock.
    fn checked_shard_at(&self, index: usize) -> KvResult<&Shard> {
        if self.hooked.load(Ordering::Acquire) {
            if let Some(h) = self.fault_hook.read().as_ref() {
                if !h.shard_available(index) {
                    return Err(KvError::Unavailable { shard: index });
                }
            }
        }
        Ok(self.shard_at(index))
    }

    /// The key's shard once the fault hook has cleared it.
    fn checked_shard(&self, key: &str) -> KvResult<&Shard> {
        self.checked_shard_at(self.shard_of(key))
    }

    /// Number of keys per shard (load-balance metric).
    fn keys_per_shard(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.map.read().len()).collect()
    }

    /// Total number of keys.
    pub fn len(&self) -> usize {
        self.keys_per_shard().iter().sum()
    }

    /// True when the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ----- persistence ---------------------------------------------------

    /// Snapshot the entire store (the RDB analogue): a consistent-enough
    /// copy taken shard by shard. Writers racing the dump land wholly in
    /// or wholly out per key, per header and per dirty entry.
    pub fn dump(&self) -> Snapshot {
        let mut entries = Vec::with_capacity(self.len());
        for shard in &self.shards {
            for (k, v) in shard.map.read().iter() {
                entries.push((k.clone(), v.clone()));
            }
        }
        let mut headers = Vec::new();
        for shard in &self.shards {
            headers.extend(
                shard
                    .headers
                    .map
                    .read()
                    .iter()
                    .map(|(&oid, &h)| (oid, h.unpack())),
            );
        }
        // Deterministic output regardless of shard and map iteration order.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        headers.sort_unstable_by_key(|&(oid, _)| oid);
        let dirty = self.dirty.read().iter().copied().collect();
        Snapshot {
            entries,
            headers,
            dirty,
        }
    }

    /// Rebuild a store from a snapshot, re-sharding keys and headers over
    /// `shards` shards (the shard count may differ from the dumping
    /// store's). The dirty log keeps its FIFO order.
    ///
    /// A snapshot is input from outside the store, so its headers are
    /// checked here: one whose version exceeds
    /// [`PackedHeader::MAX_VERSION`] refuses the whole snapshot with
    /// [`KvError::VersionOutOfRange`].
    pub fn restore(snapshot: Snapshot, shards: usize) -> KvResult<Self> {
        let store = KvStore::new(shards);
        *store.dirty.write() = snapshot.dirty.into();
        for (k, v) in snapshot.entries {
            store.shard(&k).map.write().insert(k, v);
        }
        for (oid, header) in snapshot.headers {
            let packed = PackedHeader::checked(header).ok_or(KvError::VersionOutOfRange {
                oid,
                version: header.version,
            })?;
            store
                .shard_at(store.header_shard_of(oid))
                .headers
                .map
                .write()
                .insert(oid, packed);
        }
        Ok(store)
    }

    // ----- LIST --------------------------------------------------------

    fn with_list<R>(
        &self,
        key: &str,
        create: bool,
        f: impl FnOnce(Option<&mut VecDeque<Bytes>>) -> R,
    ) -> KvResult<R> {
        let mut map = self.checked_shard(key)?.map.write();
        match map.get_mut(key) {
            Some(Value::List(list)) => Ok(f(Some(list))),
            Some(v) => Err(KvError::WrongType {
                expected: "list",
                found: v.type_name(),
            }),
            None if create => {
                // Build the list outside the map so the closure runs on
                // a value we know is a list — no re-match, no panic arm.
                let mut list = VecDeque::new();
                let r = f(Some(&mut list));
                map.insert(key.to_owned(), Value::List(list));
                Ok(r)
            }
            None => Ok(f(None)),
        }
    }

    /// `RPUSH key value` — appends, returning the new length.
    pub fn rpush(&self, key: &str, value: impl Into<Bytes>) -> KvResult<usize> {
        let value = value.into();
        self.with_list(key, true, |list| {
            list.map_or(0, |l| {
                l.push_back(value);
                l.len()
            })
        })
    }

    /// `LPOP key count` — removes and returns up to `count` head entries
    /// under one lock acquisition.
    pub fn lpop_n(&self, key: &str, count: usize) -> KvResult<Vec<Bytes>> {
        self.with_list(key, false, |list| match list {
            None => Vec::new(),
            Some(l) => l.drain(..count.min(l.len())).collect(),
        })
    }

    // ----- HASH --------------------------------------------------------

    /// `HSET key field value` — returns true when the field is new.
    /// Overwriting an existing field of an existing hash allocates
    /// nothing: key and field strings are built only when inserted.
    pub fn hset(&self, key: &str, field: &str, value: impl Into<Bytes>) -> KvResult<bool> {
        let value = value.into();
        let mut map = self.checked_shard(key)?.map.write();
        match map.get_mut(key) {
            Some(Value::Hash(h)) => match h.get_mut(field) {
                Some(slot) => {
                    *slot = value;
                    Ok(false)
                }
                None => {
                    h.insert(field.to_owned(), value);
                    Ok(true)
                }
            },
            Some(v) => Err(KvError::WrongType {
                expected: "hash",
                found: v.type_name(),
            }),
            None => {
                let h = HashMap::from([(field.to_owned(), value)]);
                map.insert(key.to_owned(), Value::Hash(h));
                Ok(true)
            }
        }
    }

    /// `HGET key field`.
    pub fn hget(&self, key: &str, field: &str) -> KvResult<Option<Bytes>> {
        match self.checked_shard(key)?.map.read().get(key) {
            None => Ok(None),
            Some(Value::Hash(h)) => Ok(h.get(field).cloned()),
            Some(v) => Err(KvError::WrongType {
                expected: "hash",
                found: v.type_name(),
            }),
        }
    }

    // ----- object headers ------------------------------------------------

    /// Store `oid`'s header, replacing any earlier one.
    pub fn header_put(&self, oid: ObjectId, header: ObjectHeader) -> KvResult<()> {
        let slice = &self.checked_shard_at(self.header_shard_of(oid))?.headers;
        let mut map = slice.map.write();
        map.insert(oid, header.into());
        // The write lock serialises this slice's writers, so a plain
        // store replaces an atomic RMW.
        let writes = slice.writes.load(Ordering::Relaxed);
        slice.writes.store(writes + 1, Ordering::Relaxed);
        Ok(())
    }

    /// `oid`'s header, if one was stored.
    pub fn header_get(&self, oid: ObjectId) -> KvResult<Option<ObjectHeader>> {
        let slice = &self.checked_shard_at(self.header_shard_of(oid))?.headers;
        slice.reads.fetch_add(1, Ordering::Relaxed);
        Ok(slice.map.read().get(&oid).map(|h| h.unpack()))
    }

    /// (reads, writes) of single object headers served so far
    /// ([`KvStore::header_get`], [`KvStore::header_put`]), summed over
    /// the shards. Whole-table scans, dumps and restores are not counted.
    pub fn header_op_counts(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(r, w), s| {
            (
                r + s.headers.reads.load(Ordering::Relaxed),
                w + s.headers.writes.load(Ordering::Relaxed),
            )
        })
    }

    /// Number of stored headers. Visits every shard, so it fails while
    /// any one of them is unavailable.
    pub fn header_len(&self) -> KvResult<usize> {
        let mut len = 0;
        for index in 0..self.shards.len() {
            len += self.checked_shard_at(index)?.headers.map.read().len();
        }
        Ok(len)
    }

    /// Every object id with a stored header, sorted. Visits every shard,
    /// so it fails while any one of them is unavailable.
    pub fn header_ids(&self) -> KvResult<Vec<ObjectId>> {
        let mut ids = Vec::new();
        for index in 0..self.shards.len() {
            ids.extend(
                self.checked_shard_at(index)?
                    .headers
                    .map
                    .read()
                    .keys()
                    .copied(),
            );
        }
        ids.sort_unstable();
        Ok(ids)
    }

    // ----- dirty log -----------------------------------------------------

    /// The dirty log once the fault hook has cleared the shard serving it.
    fn checked_dirty(&self) -> KvResult<&RwLock<VecDeque<DirtyEntry>>> {
        self.checked_shard_at(self.dirty_shard)?;
        Ok(&self.dirty)
    }

    /// RPUSH: append `entry` at the tail, returning the new length. This
    /// is how the write logger inserts dirty entries (§IV).
    pub fn dirty_push(&self, entry: DirtyEntry) -> KvResult<usize> {
        let mut log = self.checked_dirty()?.write();
        log.push_back(entry);
        Ok(log.len())
    }

    /// LRANGE: up to `count` entries from FIFO position `start`, without
    /// removing them — fewer near the tail, none past it.
    pub fn dirty_range(&self, start: usize, count: usize) -> KvResult<Vec<DirtyEntry>> {
        let log = self.checked_dirty()?.read();
        Ok(log.iter().skip(start).take(count).copied().collect())
    }

    /// LPOP with a count: remove and return up to `count` head entries
    /// under one lock acquisition, as the re-integration planner drains.
    pub fn dirty_pop_n(&self, count: usize) -> KvResult<Vec<DirtyEntry>> {
        let mut log = self.checked_dirty()?.write();
        let take = count.min(log.len());
        Ok(log.drain(..take).collect())
    }

    /// LLEN: number of logged entries.
    pub fn dirty_len(&self) -> KvResult<usize> {
        Ok(self.checked_dirty()?.read().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn list_fifo_matches_redis_semantics() {
        let kv = KvStore::new(4);
        assert_eq!(kv.rpush("q", "1").unwrap(), 1);
        assert_eq!(kv.rpush("q", "2").unwrap(), 2);
        assert_eq!(kv.rpush("q", "3").unwrap(), 3);
        assert_eq!(kv.lpop_n("q", 1).unwrap(), vec![Bytes::from("1")]);
        assert_eq!(kv.rpush("q", "4").unwrap(), 3);
        assert_eq!(
            kv.lpop_n("q", 3).unwrap(),
            vec![Bytes::from("2"), Bytes::from("3"), Bytes::from("4")]
        );
    }

    #[test]
    fn lpop_n_drains_head_in_order() {
        let kv = KvStore::new(4);
        for i in 0..5 {
            kv.rpush("q", i.to_string()).unwrap();
        }
        assert_eq!(
            kv.lpop_n("q", 3).unwrap(),
            vec![Bytes::from("0"), Bytes::from("1"), Bytes::from("2")]
        );
        // Over-asking drains the rest; missing keys and empty lists
        // yield nothing.
        assert_eq!(kv.lpop_n("q", 100).unwrap().len(), 2);
        assert!(kv.lpop_n("q", 3).unwrap().is_empty());
        assert!(kv.lpop_n("missing", 3).unwrap().is_empty());
        kv.hset("h", "f", "x").unwrap();
        assert!(matches!(kv.lpop_n("h", 1), Err(KvError::WrongType { .. })));
    }

    #[test]
    fn lrange_bounds() {
        // The dirty log's LRANGE: a window past the tail is short, one
        // wholly past it is empty.
        let kv = KvStore::new(2);
        assert!(kv.dirty_range(0, 10).unwrap().is_empty());
        for i in 0..5 {
            kv.dirty_push(entry(i, 2)).unwrap();
        }
        assert_eq!(
            kv.dirty_range(3, 100).unwrap(),
            vec![entry(3, 2), entry(4, 2)]
        );
        assert!(kv.dirty_range(10, 20).unwrap().is_empty());
        assert_eq!(kv.dirty_len().unwrap(), 5, "LRANGE removes nothing");
    }

    #[test]
    fn wrong_type_errors() {
        let kv = KvStore::new(4);
        kv.hset("h", "f", "x").unwrap();
        assert!(matches!(kv.rpush("h", "y"), Err(KvError::WrongType { .. })));
        kv.rpush("l", "y").unwrap();
        assert!(matches!(kv.hget("l", "f"), Err(KvError::WrongType { .. })));
        assert!(matches!(
            kv.hset("l", "f", "x"),
            Err(KvError::WrongType { .. })
        ));
    }

    #[test]
    fn hash_operations() {
        let kv = KvStore::new(4);
        assert!(kv.hset("h", "f1", "v1").unwrap());
        assert!(!kv.hset("h", "f1", "v2").unwrap());
        assert!(kv.hset("h", "f2", "v3").unwrap());
        assert_eq!(kv.hget("h", "f1").unwrap().unwrap(), Bytes::from("v2"));
        assert_eq!(kv.hget("h", "f3").unwrap(), None);
        assert_eq!(kv.hget("missing", "f").unwrap(), None);
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn hkeys_enumerates_fields() {
        // The header table's HKEYS: every object id once, sorted, however
        // the ids spread over the shards.
        let kv = KvStore::new(4);
        assert!(kv.header_ids().unwrap().is_empty());
        for oid in [9, 3, 7919, 3] {
            kv.header_put(ObjectId(oid), header(1, false)).unwrap();
        }
        assert_eq!(
            kv.header_ids().unwrap(),
            vec![ObjectId(3), ObjectId(9), ObjectId(7919)]
        );
    }

    #[test]
    fn keys_balance_across_shards() {
        let kv = KvStore::new(8);
        for i in 0..8000 {
            kv.hset(&format!("key:{i}"), "f", "v").unwrap();
        }
        let per = kv.keys_per_shard();
        assert_eq!(per.iter().sum::<usize>(), 8000);
        let mean = 1000.0;
        for (i, &c) in per.iter().enumerate() {
            assert!(
                (c as f64 - mean).abs() < mean * 0.5,
                "shard {i} holds {c} keys (mean {mean})"
            );
        }
    }

    #[test]
    fn snapshot_restore_round_trips_across_shard_counts() {
        let kv = KvStore::new(4);
        for i in 0..10 {
            kv.rpush("list", format!("item-{i}")).unwrap();
        }
        kv.hset("hash", "field", "val").unwrap();
        let snap = kv.dump();
        assert_eq!(snap.len(), 2);

        // Restore with a different shard count: contents identical, and
        // the restored store dumps back to the same snapshot.
        let restored = KvStore::restore(snap.clone(), 9).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.dump(), snap);
        assert_eq!(
            restored.hget("hash", "field").unwrap().unwrap(),
            Bytes::from("val")
        );
        let items = restored.lpop_n("list", 100).unwrap();
        assert_eq!(items.len(), 10);
        assert_eq!(items[3], Bytes::from("item-3"));
    }

    #[test]
    fn empty_snapshot() {
        let kv = KvStore::new(3);
        let snap = kv.dump();
        assert!(snap.is_empty());
        let restored = KvStore::restore(snap, 1).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn shard_of_is_stable() {
        let kv = KvStore::new(8);
        for i in 0..100 {
            let k = format!("key:{i}");
            assert_eq!(kv.shard_of(&k), kv.shard_of(&k));
        }
    }

    /// A hook under which exactly one shard is dark.
    struct DownShard(usize);
    impl ShardFaultHook for DownShard {
        fn shard_available(&self, shard: usize) -> bool {
            shard != self.0
        }
    }

    #[test]
    fn fault_hook_makes_shards_unavailable() {
        let kv = KvStore::new(4);
        kv.rpush("q", "1").unwrap();
        let down = kv.shard_of("q");
        kv.set_fault_hook(Some(Arc::new(DownShard(down))));
        assert_eq!(kv.lpop_n("q", 1), Err(KvError::Unavailable { shard: down }));
        assert_eq!(
            kv.rpush("q", "2"),
            Err(KvError::Unavailable { shard: down })
        );
        // A key on another shard still works.
        let other = (0..100)
            .map(|i| format!("k{i}"))
            .find(|k| kv.shard_of(k) != down)
            .unwrap();
        kv.hset(&other, "f", "v").unwrap();
        assert!(kv.hget(&other, "f").unwrap().is_some());
        // Removing the hook restores service; no data was lost.
        kv.set_fault_hook(None);
        assert_eq!(kv.lpop_n("q", 10).unwrap(), vec![Bytes::from("1")]);
    }

    fn header(version: u64, dirty: bool) -> ObjectHeader {
        ObjectHeader {
            version: ech_core::ids::VersionId(version),
            dirty,
        }
    }

    #[test]
    fn header_records_round_trip_beside_the_key_space() {
        let kv = KvStore::new(4);
        assert_eq!(kv.header_get(ObjectId(7)).unwrap(), None);
        kv.header_put(ObjectId(7), header(3, true)).unwrap();
        kv.header_put(ObjectId(7), header(4, false)).unwrap();
        kv.header_put(ObjectId(2), header(1, true)).unwrap();
        assert_eq!(kv.header_get(ObjectId(7)).unwrap(), Some(header(4, false)));
        assert_eq!(kv.header_len().unwrap(), 2);
        assert_eq!(kv.header_ids().unwrap(), vec![ObjectId(2), ObjectId(7)]);
        // Headers are not keys: the string key space stays empty.
        assert!(kv.is_empty());
        assert!(!kv.dump().is_empty());
    }

    #[test]
    fn headers_balance_across_shards() {
        // §III-E2: "balance the storage usage and the lookup load".
        let kv = KvStore::new(10);
        for i in 0..100_000u64 {
            kv.header_put(ObjectId(i), header(1, false)).unwrap();
        }
        assert_eq!(kv.header_len().unwrap(), 100_000);
        let mut per = [0usize; 10];
        for i in 0..100_000u64 {
            per[kv.header_shard_of(ObjectId(i))] += 1;
        }
        let mean = 10_000.0;
        for (i, &c) in per.iter().enumerate() {
            assert!(
                (c as f64 - mean).abs() <= mean * 0.05,
                "shard {i} holds {c} headers (mean {mean})"
            );
        }
    }

    #[test]
    fn header_ops_are_counted_one_by_one() {
        let kv = KvStore::new(4);
        for oid in 0..50 {
            kv.header_put(ObjectId(oid), header(1, false)).unwrap();
        }
        kv.header_put(ObjectId(7), header(2, true)).unwrap();
        for oid in 0..60 {
            kv.header_get(ObjectId(oid)).unwrap();
        }
        // Scans and dumps are not single-header ops.
        kv.header_len().unwrap();
        kv.header_ids().unwrap();
        kv.dump();
        assert_eq!(kv.header_op_counts(), (60, 51));
    }

    #[test]
    fn snapshot_carries_headers_sorted_and_reshards_them() {
        let kv = KvStore::new(4);
        kv.rpush("list", "item").unwrap();
        for i in (0..500u64).rev() {
            kv.header_put(ObjectId(i * 7919), header(i % 5, i % 2 == 0))
                .unwrap();
        }
        let snap = kv.dump();
        assert_eq!((snap.len(), snap.headers.len()), (1, 500));
        assert!(snap.headers.windows(2).all(|w| w[0].0 < w[1].0));

        // Packing is the table's business: the snapshot speaks headers.
        let unpacked = (ObjectId(3 * 7919), header(3, false));
        assert!(snap.headers.contains(&unpacked));
        for shards in [1, 3, 9] {
            let restored = KvStore::restore(snap.clone(), shards).unwrap();
            assert_eq!(restored.dump(), snap, "{shards} shards");
            assert_eq!(restored.header_len().unwrap(), 500);
            assert_eq!(
                restored.header_get(ObjectId(3 * 7919)).unwrap(),
                Some(header(3, false))
            );
        }
    }

    #[test]
    fn restore_refuses_a_header_version_a_packed_header_cannot_hold() {
        let top = PackedHeader::MAX_VERSION.0;
        let snapshot = |version| Snapshot {
            entries: vec![("l".to_string(), Value::List([Bytes::from("v")].into()))],
            headers: vec![(ObjectId(1), header(3, false)), (ObjectId(2), version)],
            dirty: vec![entry(1, 3)],
        };
        for dirty in [false, true] {
            let fits = snapshot(header(top, dirty));
            let restored = KvStore::restore(fits.clone(), 3).unwrap();
            assert_eq!(
                restored.header_get(ObjectId(2)).unwrap(),
                Some(header(top, dirty))
            );
            assert_eq!(restored.dump(), fits);

            let over = header(top + 1, dirty);
            assert_eq!(
                KvStore::restore(snapshot(over), 3).err(),
                Some(KvError::VersionOutOfRange {
                    oid: ObjectId(2),
                    version: over.version
                })
            );
        }
    }

    #[test]
    fn fault_hook_covers_header_ops_on_the_shard_they_route_to() {
        let kv = KvStore::new(4);
        let down = kv.header_shard_of(ObjectId(1));
        let other = (2..100)
            .map(ObjectId)
            .find(|&o| kv.header_shard_of(o) != down)
            .unwrap();
        kv.header_put(ObjectId(1), header(2, true)).unwrap();
        kv.set_fault_hook(Some(Arc::new(DownShard(down))));
        let unavailable = KvError::Unavailable { shard: down };
        assert_eq!(
            kv.header_put(ObjectId(1), header(3, true)),
            Err(unavailable)
        );
        assert_eq!(kv.header_get(ObjectId(1)), Err(unavailable));
        // Another shard's headers are served; whole-table scans are not.
        kv.header_put(other, header(2, false)).unwrap();
        assert_eq!(kv.header_get(other).unwrap(), Some(header(2, false)));
        assert_eq!(kv.header_len(), Err(unavailable));
        assert_eq!(kv.header_ids(), Err(unavailable));
        // The refused write left no trace.
        kv.set_fault_hook(None);
        assert_eq!(kv.header_get(ObjectId(1)).unwrap(), Some(header(2, true)));
        assert_eq!(kv.header_len().unwrap(), 2);
    }

    fn entry(oid: u64, version: u64) -> DirtyEntry {
        DirtyEntry::new(ObjectId(oid), ech_core::ids::VersionId(version))
    }

    #[test]
    fn dirty_log_is_not_a_key_but_counts_in_a_snapshot() {
        // The verbs themselves are checked against a model in
        // `tests/model.rs`; this pins what the model cannot see.
        let kv = KvStore::new(4);
        let entries = [entry(7919, 2), entry(3, 2), entry(7919, 3)];
        for (i, &e) in entries.iter().enumerate() {
            assert_eq!(kv.dirty_push(e).unwrap(), i + 1);
        }
        // The string key space never saw the log...
        assert!(kv.is_empty());
        assert!(kv.lpop_n(DIRTY_LOG_HOME, 1).unwrap().is_empty());
        // ...but a snapshot holding only the log is not empty, and carries
        // it head first.
        let snap = kv.dump();
        assert!(!snap.is_empty());
        assert_eq!(snap.dirty, entries);
        assert_eq!(
            KvStore::restore(snap, 9).unwrap().dirty_pop_n(10).unwrap(),
            entries
        );
    }

    #[test]
    fn fault_hook_covers_dirty_ops_on_the_shard_ech_dirty_routes_to() {
        let kv = KvStore::new(4);
        let down = kv.shard_of("ech:dirty");
        kv.dirty_push(entry(1, 2)).unwrap();
        kv.set_fault_hook(Some(Arc::new(DownShard(down))));
        // The log is dark exactly when that shard is...
        let unavailable = KvError::Unavailable { shard: down };
        assert_eq!(kv.dirty_push(entry(2, 2)), Err(unavailable));
        assert_eq!(kv.dirty_range(0, 1), Err(unavailable));
        assert_eq!(kv.dirty_pop_n(1), Err(unavailable));
        assert_eq!(kv.dirty_len(), Err(unavailable));
        // ...while the other shards serve headers and keys.
        let elsewhere = (0..100)
            .map(ObjectId)
            .find(|&o| kv.header_shard_of(o) != down)
            .unwrap();
        kv.header_put(elsewhere, header(2, true)).unwrap();
        assert_eq!(kv.header_get(elsewhere).unwrap(), Some(header(2, true)));
        // A hook that darkens another shard leaves the log alone.
        kv.set_fault_hook(Some(Arc::new(DownShard((down + 1) % 4))));
        assert_eq!(kv.dirty_len().unwrap(), 1);
        // The refused ops left no trace.
        kv.set_fault_hook(None);
        assert_eq!(kv.dirty_pop_n(10).unwrap(), vec![entry(1, 2)]);
    }

    #[test]
    fn concurrent_rpush_lpop_preserves_all_items() {
        // 8 producers push 1000 items each; 4 consumers pop until they have
        // seen all 8000. No item may be lost or duplicated.
        let kv = Arc::new(KvStore::new(4));
        let produced = 8 * 1000;
        let popped = Arc::new(parking_lot::Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for t in 0..8 {
                let kv = kv.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        kv.rpush("q", format!("{t}:{i}")).unwrap();
                    }
                });
            }
            for _ in 0..4 {
                let kv = kv.clone();
                let popped = popped.clone();
                s.spawn(move || loop {
                    let batch = kv.lpop_n("q", 8).unwrap();
                    if batch.is_empty() {
                        if popped.lock().len() >= produced {
                            break;
                        }
                        std::thread::yield_now();
                    } else {
                        popped.lock().extend(batch);
                    }
                });
            }
        });
        let mut items = popped.lock().clone();
        assert_eq!(items.len(), produced);
        items.sort();
        items.dedup();
        assert_eq!(items.len(), produced, "duplicate items popped");
    }
}
