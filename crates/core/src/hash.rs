//! Hash functions used to position keys and virtual nodes on the ring.
//!
//! Consistent hashing only needs a deterministic, well-mixed 64-bit hash;
//! it does not need cryptographic strength. We implement FNV-1a (the hash
//! family Sheepdog uses for its ring) with a SplitMix64 finalizer to repair
//! FNV's weak avalanche in the low bits, plus a dedicated virtual-node
//! position function. Everything here is allocation-free and `#[inline]`
//! because ring construction hashes `n * B` virtual nodes and placement
//! hashes every object.

use crate::ids::{ObjectId, ServerId};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over an arbitrary byte slice.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer: full-avalanche mixing of a 64-bit value.
///
/// Used both to post-mix FNV output and as a fast standalone integer hash
/// (every bit of the input affects every bit of the output).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---- id-keyed tables -------------------------------------------------

/// Murmur3's 64-bit finalizer: a full-avalanche mixer with constants and
/// shifts unrelated to [`mix64`]'s.
#[inline]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// Hasher for tables keyed by ids this program makes up itself
/// ([`ObjectId`]): one mixer round per `u64` instead of SipHash (other
/// key shapes fold through FNV first). Not for keys an outside party
/// chooses — it has no secret.
///
/// The hash must stay independent of every hash that *selects* which
/// table an id goes into — `mix64(oid)` routes a header to its kv shard,
/// [`object_position`] routes an object to its nodes. A table's keys
/// share the selecting hash's top bits, and the standard map takes its
/// 7-bit control tag from the top bits of the map hash: reuse the
/// selecting hash and every key in a table draws from a sliver of the
/// 128 tags, so probes stop filtering. Hence `fmix64`, not [`mix64`].
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(fnv1a64(bytes));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = fmix64(self.0 ^ v);
    }
}

/// A `HashMap` keyed by program-made ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IdHasher>>;

/// Position of a data object (key) on the hash ring.
#[inline]
pub fn object_position(oid: ObjectId) -> u64 {
    // FNV over the little-endian OID bytes, then mix. Matching Sheepdog,
    // the object ID (not its payload) determines placement.
    mix64(fnv1a64(&oid.0.to_le_bytes()))
}

/// Position of virtual node `vnode` of `server` on the hash ring.
///
/// Each (server, vnode-index) pair must map to a stable, unique-looking
/// position so that adding or removing one server perturbs only its own
/// arcs (the minimal-disruption property of Figure 1).
#[inline]
pub fn vnode_position(server: ServerId, vnode: u32) -> u64 {
    let mut buf = [0u8; 8];
    buf[..4].copy_from_slice(&server.0.to_le_bytes());
    buf[4..].copy_from_slice(&vnode.to_le_bytes());
    mix64(fnv1a64(&buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Reference vectors from the FNV specification.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn mix64_is_a_bijection_probe() {
        // SplitMix64's finalizer is invertible; distinct inputs must give
        // distinct outputs on a broad probe.
        let mut seen = HashSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn object_positions_are_deterministic() {
        assert_eq!(object_position(ObjectId(42)), object_position(ObjectId(42)));
        assert_ne!(object_position(ObjectId(42)), object_position(ObjectId(43)));
    }

    #[test]
    fn vnode_positions_do_not_collide_in_practice() {
        // 100 servers x 1000 vnodes: collisions would break ring ordering
        // determinism. With 64-bit positions the expected collision count is
        // ~0 (birthday bound ~ 2.7e-10 for 1e5 samples).
        let mut seen = HashSet::new();
        for s in 0..100u32 {
            for v in 0..1000u32 {
                assert!(
                    seen.insert(vnode_position(ServerId(s), v)),
                    "collision at server {s} vnode {v}"
                );
            }
        }
    }

    #[test]
    fn positions_spread_across_the_ring() {
        // Crude uniformity check: bucket 64k object positions into 16 bins;
        // each bin should hold within 15% of the mean.
        let n = 65536u64;
        let mut bins = [0u64; 16];
        for i in 0..n {
            let pos = object_position(ObjectId(i));
            bins[(pos >> 60) as usize] += 1;
        }
        let mean = n / 16;
        for (i, &b) in bins.iter().enumerate() {
            assert!(
                (b as f64 - mean as f64).abs() < mean as f64 * 0.15,
                "bin {i} holds {b}, mean {mean}"
            );
        }
    }
}
