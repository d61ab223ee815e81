//! Strongly-typed identifiers shared across the workspace.
//!
//! The paper (§III-E1) identifies data objects by a universal *object ID*
//! (OID) and cluster states by a monotonically increasing *version* (called
//! an *epoch* in Ceph/Sheepdog). Servers are identified by a small integer
//! and additionally carry a *rank* in the expansion chain (§III-B): rank 1
//! is powered off last, rank `n` first.

use std::fmt;

/// Universal identifier of a data object (the paper's *OID*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Raw 64-bit value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oid:{}", self.0)
    }
}

impl From<u64> for ObjectId {
    fn from(v: u64) -> Self {
        ObjectId(v)
    }
}

/// Identifier of a physical storage server.
///
/// `ServerId` values are dense indices `0..n` into the cluster topology;
/// they are distinct from the 1-based *rank* used by the expansion chain
/// (§III-B). In this crate the server at index `i` always has rank
/// `i + 1`, which keeps examples aligned with the paper's figures where
/// "server 1" is the highest-ranked primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

impl ServerId {
    /// Dense index into per-server arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Display 1-based to match the paper's figures.
        write!(f, "server {}", self.0 + 1)
    }
}

/// Cluster membership version (*epoch*).
///
/// Every resize event (any server changing power state) produces a new
/// version; the [`crate::membership::MembershipHistory`] maps versions to
/// membership tables so historical placements stay resolvable (§III-E1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionId(pub u64);

impl VersionId {
    /// First version of any history.
    pub const FIRST: VersionId = VersionId(1);

    /// The next version after this one.
    #[inline]
    pub fn next(self) -> VersionId {
        VersionId(self.0 + 1)
    }

    /// Raw value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_based_like_the_paper() {
        assert_eq!(ServerId(0).to_string(), "server 1");
        assert_eq!(ServerId(9).to_string(), "server 10");
    }

    #[test]
    fn version_ordering_and_next() {
        let v = VersionId::FIRST;
        assert!(v < v.next());
        assert_eq!(v.next().raw(), 2);
    }

    #[test]
    fn object_id_display_and_order() {
        assert_eq!(ObjectId(10010).to_string(), "oid:10010");
        assert!(ObjectId(9) < ObjectId(10));
    }
}
