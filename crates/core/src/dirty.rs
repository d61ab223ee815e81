//! Dirty-data tracking (§III-E2).
//!
//! An object is *dirty* when it was written under a membership version
//! that is not full-power: some of its replicas may have been offloaded
//! from inactive servers to other active ones. The *dirty table* records
//! `(OID, version)` pairs in write (FIFO) order; because versions only
//! grow, FIFO order is exactly the paper's fetch order ("version ascending
//! and OID ascending if the version is the same" holds when writers insert
//! in OID order within a version, as the logging component does).
//!
//! The table is an abstract interface here — [`InMemoryDirtyTable`] is the
//! reference implementation, and `ech-cluster` provides one backed by the
//! Redis-like `ech-kvstore`'s typed dirty log (the RPUSH/LRANGE/LPOP verbs
//! of §IV on `DirtyEntry` records).

use crate::ids::{ObjectId, VersionId};
use std::collections::VecDeque;

/// One dirty-table record: an object and the version it was last written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirtyEntry {
    /// The written object.
    pub oid: ObjectId,
    /// Membership version at write time.
    pub version: VersionId,
}

impl DirtyEntry {
    /// Convenience constructor.
    pub fn new(oid: ObjectId, version: VersionId) -> Self {
        DirtyEntry { oid, version }
    }
}

/// FIFO dirty-table interface used by the re-integration engine.
///
/// Semantics mirror the Redis LIST operations the paper uses (§IV):
/// [`push_back`](DirtyTable::push_back) is RPUSH, [`get`](DirtyTable::get)
/// is a single-element LRANGE, [`pop_front`](DirtyTable::pop_front) is
/// LPOP.
pub trait DirtyTable {
    /// Append an entry at the tail (RPUSH) — called by the write logger.
    fn push_back(&mut self, entry: DirtyEntry);

    /// Entry at FIFO position `index` (LRANGE index index), if present.
    fn get(&self, index: usize) -> Option<DirtyEntry>;

    /// Remove and return the head entry (LPOP).
    fn pop_front(&mut self) -> Option<DirtyEntry>;

    /// Up to `count` entries starting at FIFO position `start` (LRANGE
    /// start start+count-1) — fewer near the tail, empty past the end.
    ///
    /// The default delegates to [`get`](DirtyTable::get); backends with
    /// per-call overhead (locks, RPCs) should override with one batched
    /// read, which is what lets the cluster's heal scan read its whole
    /// backlog in one table access.
    fn get_range(&self, start: usize, count: usize) -> Vec<DirtyEntry> {
        (start..start.saturating_add(count))
            .map_while(|i| self.get(i))
            .collect()
    }

    /// Remove and return up to `count` head entries (LPOP with a count).
    ///
    /// Default delegates to [`pop_front`](DirtyTable::pop_front);
    /// backends should override with a single batched take.
    fn pop_front_n(&mut self, count: usize) -> Vec<DirtyEntry> {
        let mut out = Vec::with_capacity(count.min(self.len()));
        for _ in 0..count {
            match self.pop_front() {
                Some(e) => out.push(e),
                None => break,
            }
        }
        out
    }

    /// Number of entries.
    fn len(&self) -> usize;

    /// True when no entries remain (`isempty_dirty_table` in Algorithm 2).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reference in-memory dirty table.
#[derive(Debug, Clone, Default)]
pub struct InMemoryDirtyTable {
    entries: VecDeque<DirtyEntry>,
}

impl InMemoryDirtyTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterate entries in FIFO order without consuming them.
    pub fn iter(&self) -> impl Iterator<Item = &DirtyEntry> {
        self.entries.iter()
    }
}

impl DirtyTable for InMemoryDirtyTable {
    fn push_back(&mut self, entry: DirtyEntry) {
        self.entries.push_back(entry);
    }

    fn get(&self, index: usize) -> Option<DirtyEntry> {
        self.entries.get(index).copied()
    }

    fn pop_front(&mut self) -> Option<DirtyEntry> {
        self.entries.pop_front()
    }

    fn get_range(&self, start: usize, count: usize) -> Vec<DirtyEntry> {
        self.entries
            .iter()
            .skip(start)
            .take(count)
            .copied()
            .collect()
    }

    fn pop_front_n(&mut self, count: usize) -> Vec<DirtyEntry> {
        self.entries
            .drain(..count.min(self.entries.len()))
            .collect()
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Per-object header carried by every stored object (§III-E2): the last
/// version it was written in and whether it is still dirty.
///
/// Sheepdog already stores the version in its object header; the paper
/// adds the dirty bit. The re-integration engine consults headers to skip
/// *stale* dirty entries — an entry `(oid, v)` whose object has since been
/// rewritten at `v' > v` is superseded by the newer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectHeader {
    /// Last version this object was written in.
    pub version: VersionId,
    /// True until the object has been re-integrated to a full-power
    /// version.
    pub dirty: bool,
}

/// An [`ObjectHeader`] in one word, `version << 1 | dirty`: the form the
/// node stores and the header table keep, where a 16-byte header per
/// replica and per table entry would be mostly padding.
///
/// This type is the only place the format lives. Versions come from
/// [`crate::membership::MembershipHistory`], one per recorded table
/// starting at 1, so the data path never reaches `2^63`; input from
/// outside the program (a snapshot) goes through
/// [`PackedHeader::checked`] instead of `From`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedHeader(u64);

const _: () = assert!(std::mem::size_of::<PackedHeader>() == 8);

impl PackedHeader {
    /// The largest version a packed header holds, `2^63 − 1`.
    pub const MAX_VERSION: VersionId = VersionId(u64::MAX >> 1);

    /// `header` packed, or `None` when its version exceeds
    /// [`MAX_VERSION`](Self::MAX_VERSION).
    pub fn checked(header: ObjectHeader) -> Option<Self> {
        (header.version <= Self::MAX_VERSION).then_some(PackedHeader(
            header.version.0 << 1 | u64::from(header.dirty),
        ))
    }

    /// The header this word holds.
    pub fn unpack(self) -> ObjectHeader {
        ObjectHeader {
            version: VersionId(self.0 >> 1),
            dirty: self.0 & 1 == 1,
        }
    }
}

impl From<ObjectHeader> for PackedHeader {
    /// # Panics
    ///
    /// When the version exceeds [`PackedHeader::MAX_VERSION`], which no
    /// membership history issues: a bug, not an input.
    fn from(header: ObjectHeader) -> Self {
        // ech-allow(D2): every put and restamp packs a header, but only
        // with a version its membership history issued; a version at
        // `2^63` is a broken invariant that must fail loudly, not be
        // truncated into another version.
        PackedHeader::checked(header).expect("membership versions stay below 2^63")
    }
}

/// Source of object headers for staleness checks during re-integration.
pub trait HeaderSource {
    /// The object's current header, if the object exists.
    fn header(&self, oid: ObjectId) -> Option<ObjectHeader>;
}

/// Header source that knows nothing: no entry is ever considered stale.
/// Useful for analyses where each object is written at most once per
/// version window.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHeaders;

impl HeaderSource for NoHeaders {
    fn header(&self, _oid: ObjectId) -> Option<ObjectHeader> {
        None
    }
}

/// In-memory header map keyed by object id.
#[derive(Debug, Clone, Default)]
pub struct HeaderMap {
    map: std::collections::HashMap<ObjectId, ObjectHeader>,
}

impl HeaderMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a write of `oid` at `version`, marking it dirty iff
    /// `dirty`.
    pub fn record_write(&mut self, oid: ObjectId, version: VersionId, dirty: bool) {
        self.map.insert(oid, ObjectHeader { version, dirty });
    }

    /// Clear the dirty bit after successful re-integration to full power.
    pub fn mark_clean(&mut self, oid: ObjectId, version: VersionId) {
        if let Some(h) = self.map.get_mut(&oid) {
            h.dirty = false;
            h.version = version;
        }
    }

    /// Number of tracked objects.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no objects are tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl HeaderSource for HeaderMap {
    fn header(&self, oid: ObjectId) -> Option<ObjectHeader> {
        self.map.get(&oid).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut t = InMemoryDirtyTable::new();
        for (oid, ver) in [(100, 8), (200, 8), (9, 9), (103, 9), (10010, 9)] {
            t.push_back(DirtyEntry::new(ObjectId(oid), VersionId(ver)));
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.get(0).unwrap().oid, ObjectId(100));
        assert_eq!(t.get(4).unwrap().oid, ObjectId(10010));
        assert!(t.get(5).is_none());
        assert_eq!(t.pop_front().unwrap().oid, ObjectId(100));
        assert_eq!(t.pop_front().unwrap().oid, ObjectId(200));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn versions_in_fifo_order_are_non_decreasing_when_inserted_in_write_order() {
        let mut t = InMemoryDirtyTable::new();
        for v in 1..=5u64 {
            for oid in 0..10u64 {
                t.push_back(DirtyEntry::new(ObjectId(oid + v * 100), VersionId(v)));
            }
        }
        let versions: Vec<u64> = t.iter().map(|e| e.version.0).collect();
        assert!(versions.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_table_behaviour() {
        let mut t = InMemoryDirtyTable::new();
        assert!(t.is_empty());
        assert!(t.pop_front().is_none());
        assert!(t.get(0).is_none());
        assert!(t.get_range(0, 10).is_empty());
        assert!(t.pop_front_n(10).is_empty());
    }

    #[test]
    fn batched_ops_match_sequential_semantics() {
        let entries: Vec<DirtyEntry> = (0..10u64)
            .map(|i| DirtyEntry::new(ObjectId(i), VersionId(1 + i / 4)))
            .collect();
        let mut t = InMemoryDirtyTable::new();
        for &e in &entries {
            t.push_back(e);
        }
        // get_range == per-index gets, clamped at the tail.
        assert_eq!(t.get_range(0, 3), entries[0..3]);
        assert_eq!(t.get_range(7, 10), entries[7..10]);
        assert_eq!(t.get_range(10, 5), vec![]);
        // pop_front_n == repeated pop_front.
        assert_eq!(t.pop_front_n(4), entries[0..4]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.pop_front_n(100), entries[4..10]);
        assert!(t.is_empty());
    }

    #[test]
    fn header_map_tracks_latest_write() {
        let mut h = HeaderMap::new();
        h.record_write(ObjectId(10010), VersionId(9), true);
        h.record_write(ObjectId(10010), VersionId(10), true);
        let hdr = h.header(ObjectId(10010)).unwrap();
        assert_eq!(hdr.version, VersionId(10));
        assert!(hdr.dirty);
        h.mark_clean(ObjectId(10010), VersionId(11));
        let hdr = h.header(ObjectId(10010)).unwrap();
        assert!(!hdr.dirty);
        assert_eq!(hdr.version, VersionId(11));
    }

    #[test]
    fn no_headers_reports_nothing() {
        assert!(NoHeaders.header(ObjectId(1)).is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn packed_header_round_trips(version in 0u64..1 << 63, dirty in 0u8..2) {
            let header = ObjectHeader { version: VersionId(version), dirty: dirty == 1 };
            proptest::prop_assert_eq!(PackedHeader::from(header).unpack(), header);
        }
    }

    #[test]
    fn packed_header_holds_versions_below_two_to_the_63() {
        for dirty in [false, true] {
            let top = ObjectHeader {
                version: PackedHeader::MAX_VERSION,
                dirty,
            };
            assert_eq!(top.version, VersionId((1 << 63) - 1));
            assert_eq!(PackedHeader::from(top).unpack(), top);
            let over = ObjectHeader {
                version: VersionId(1 << 63),
                dirty,
            };
            assert_eq!(PackedHeader::checked(over), None);
        }
    }
}
