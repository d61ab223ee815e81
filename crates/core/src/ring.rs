//! The hash ring: sorted virtual-node positions with clockwise walks.
//!
//! The ring is the "hypothetical data structure that contains a list of
//! hash values that wraps around at both ends" (§II-A). Each physical
//! server contributes `weight` virtual nodes; the equal-work layout
//! (§III-C) is realised purely by *choosing those weights*, so the ring
//! itself stays oblivious to primaries, ranks and power states — those
//! concerns live in [`crate::placement`].
//!
//! Construction sorts once; lookups are a binary search plus a bounded
//! clockwise walk. The ring is immutable after construction: membership
//! changes are expressed by building a ring for the new weight vector (an
//! infrequent, resize-time operation) or — for power-state changes under
//! elastic placement — by *skipping* servers during the walk, which is the
//! paper's model (inactive servers stay on the ring, §IV).

use crate::hash::vnode_position;
use crate::ids::ServerId;

/// One virtual node: a position on the ring owned by a physical server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualNode {
    /// Position on the 64-bit ring.
    pub position: u64,
    /// Owning physical server.
    pub server: ServerId,
}

/// An immutable consistent-hashing ring over weighted servers.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Virtual nodes sorted by `position` (strictly increasing).
    vnodes: Vec<VirtualNode>,
    /// vnode count per server (dense ids `0..n`), by `ServerId::index`.
    weights: Vec<u32>,
    /// Successor acceleration table: the keyspace is cut into
    /// `lut.len()` equal buckets (one per vnode on average) and
    /// `lut[b]` is the index of the first vnode at or after bucket
    /// `b`'s start (`vnodes.len()` means "wraps"). A lookup becomes an
    /// O(1) table read plus an expected-O(1) forward scan instead of an
    /// O(log V) binary search. [`HashRing::build`] always fills it.
    lut: Vec<u32>,
    /// `position >> lut_shift` maps a ring position to its LUT bucket.
    lut_shift: u32,
}

impl HashRing {
    /// Build a ring where server `i` contributes `weights[i]` virtual nodes.
    ///
    /// A weight of zero is allowed and simply keeps that server off the
    /// ring (used by tests and by degenerate capacity configurations).
    ///
    /// # Panics
    /// Panics if every weight is zero — an empty ring cannot place data.
    pub fn build(weights: &[u32]) -> Self {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "cannot build an empty hash ring");
        let mut vnodes = Vec::with_capacity(total as usize);
        for (i, &w) in weights.iter().enumerate() {
            let server = ServerId(i as u32);
            for v in 0..w {
                vnodes.push(VirtualNode {
                    position: vnode_position(server, v),
                    server,
                });
            }
        }
        vnodes.sort_unstable_by_key(|v| v.position);
        // 64-bit positions collide with negligible probability, but a
        // collision would make walk order depend on sort stability; nudge
        // duplicates deterministically instead.
        for i in 1..vnodes.len() {
            if vnodes[i].position <= vnodes[i - 1].position {
                vnodes[i].position = vnodes[i - 1].position + 1;
            }
        }
        let (lut, lut_shift) = Self::build_lut(&vnodes);
        HashRing {
            vnodes,
            weights: weights.to_vec(),
            lut,
            lut_shift,
        }
    }

    /// Build the successor acceleration table: one bucket per vnode on
    /// average (rounded up to a power of two so the bucket of a position
    /// is a shift, not a division).
    fn build_lut(vnodes: &[VirtualNode]) -> (Vec<u32>, u32) {
        let buckets = vnodes.len().next_power_of_two().max(2);
        let shift = 64 - buckets.trailing_zeros();
        let mut lut = vec![vnodes.len() as u32; buckets];
        let mut vi = 0usize;
        for (b, slot) in lut.iter_mut().enumerate() {
            let start = (b as u64) << shift;
            while vnodes.get(vi).is_some_and(|v| v.position < start) {
                vi += 1;
            }
            *slot = vi as u32;
        }
        (lut, shift)
    }

    /// Total number of virtual nodes on the ring.
    #[inline]
    pub fn len(&self) -> usize {
        self.vnodes.len()
    }

    /// True when the ring holds no virtual nodes (never, post-build).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vnodes.is_empty()
    }

    /// Number of physical servers this ring was built over.
    #[inline]
    pub fn server_count(&self) -> usize {
        self.weights.len()
    }

    /// vnode count for `server`.
    #[inline]
    pub fn weight(&self, server: ServerId) -> u32 {
        self.weights[server.index()]
    }

    /// All virtual nodes in ring (position) order.
    #[inline]
    pub fn vnodes(&self) -> &[VirtualNode] {
        &self.vnodes
    }

    /// Index of the successor vnode of `position`: the first vnode at or
    /// after it, wrapping past the top of the ring (§II-A's clockwise walk
    /// starting point).
    ///
    /// Served from the precomputed acceleration table (O(1) expected).
    #[inline]
    fn successor_index(&self, position: u64) -> usize {
        let mut i = self.lut[(position >> self.lut_shift) as usize] as usize;
        while let Some(v) = self.vnodes.get(i) {
            if v.position >= position {
                return i;
            }
            i += 1;
        }
        0
    }

    /// Binary-search successor lookup: the reference the acceleration
    /// table is checked against.
    #[cfg(test)]
    fn successor_index_binary(&self, position: u64) -> usize {
        match self.vnodes.binary_search_by(|v| v.position.cmp(&position)) {
            Ok(i) => i,
            Err(i) => {
                if i == self.vnodes.len() {
                    0
                } else {
                    i
                }
            }
        }
    }

    /// Clockwise walk starting at the successor of `position`, visiting
    /// every vnode exactly once (one full lap).
    ///
    /// One lap suffices for any placement decision: after it, no new
    /// server can appear.
    #[inline]
    pub fn walk_from(&self, position: u64) -> RingWalk<'_> {
        RingWalk {
            ring: self,
            next: self.successor_index(position),
            remaining: self.vnodes.len(),
        }
    }

    /// Distinct servers in clockwise order from `position`.
    ///
    /// This is the "walking along the ring" of §II-A collapsed to physical
    /// servers: consecutive vnodes of an already-seen server are skipped.
    pub fn distinct_servers_from(&self, position: u64) -> DistinctServerWalk<'_> {
        DistinctServerWalk {
            walk: self.walk_from(position),
            seen: vec![false; self.weights.len()],
        }
    }

    /// Fraction of the ring's keyspace owned by each server (arc length of
    /// each vnode, i.e. the gap back to its predecessor, summed per
    /// server and normalised).
    ///
    /// Under first-successor placement this equals each server's expected
    /// share of single-copy data, so it is the analytic check for the
    /// equal-work layout (§III-C).
    pub fn ownership_fractions(&self) -> Vec<f64> {
        let mut arc = vec![0.0f64; self.weights.len()];
        if self.vnodes.is_empty() {
            return arc;
        }
        let len = self.vnodes.len();
        for i in 0..len {
            let prev = self.vnodes[(i + len - 1) % len].position;
            let cur = self.vnodes[i].position;
            // Wrapping distance from predecessor to this vnode.
            let gap = cur.wrapping_sub(prev);
            arc[self.vnodes[i].server.index()] += gap as f64;
        }
        let total = 2.0f64.powi(64);
        for a in &mut arc {
            *a /= total;
        }
        arc
    }
}

/// Iterator over one clockwise lap of virtual nodes.
#[derive(Debug, Clone)]
pub struct RingWalk<'a> {
    ring: &'a HashRing,
    next: usize,
    remaining: usize,
}

impl<'a> Iterator for RingWalk<'a> {
    type Item = &'a VirtualNode;

    #[inline]
    fn next(&mut self) -> Option<&'a VirtualNode> {
        if self.remaining == 0 {
            return None;
        }
        let v = &self.ring.vnodes[self.next];
        self.next += 1;
        if self.next == self.ring.vnodes.len() {
            self.next = 0;
        }
        self.remaining -= 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RingWalk<'_> {}

/// Iterator over distinct physical servers in clockwise order.
#[derive(Debug, Clone)]
pub struct DistinctServerWalk<'a> {
    walk: RingWalk<'a>,
    seen: Vec<bool>,
}

impl Iterator for DistinctServerWalk<'_> {
    type Item = ServerId;

    fn next(&mut self) -> Option<ServerId> {
        for v in self.walk.by_ref() {
            let idx = v.server.index();
            if !self.seen[idx] {
                self.seen[idx] = true;
                return Some(v.server);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::object_position;
    use crate::ids::ObjectId;

    fn uniform_ring(n: usize, w: u32) -> HashRing {
        HashRing::build(&vec![w; n])
    }

    #[test]
    fn build_sorts_positions_strictly() {
        let ring = uniform_ring(10, 128);
        let v = ring.vnodes();
        assert_eq!(v.len(), 1280);
        for i in 1..v.len() {
            assert!(v[i - 1].position < v[i].position);
        }
    }

    #[test]
    #[should_panic(expected = "empty hash ring")]
    fn empty_ring_panics() {
        HashRing::build(&[0, 0, 0]);
    }

    #[test]
    fn zero_weight_server_never_appears() {
        let ring = HashRing::build(&[100, 0, 100]);
        assert!(ring.vnodes().iter().all(|v| v.server != ServerId(1)));
        assert_eq!(ring.weight(ServerId(1)), 0);
    }

    #[test]
    fn successor_wraps_past_top() {
        let ring = uniform_ring(4, 16);
        let last = ring.vnodes().last().unwrap().position;
        // Anything strictly above the last vnode wraps to index 0.
        if last < u64::MAX {
            assert_eq!(ring.successor_index(last + 1), 0);
        }
        // successor of position 0 is simply the first vnode.
        assert_eq!(ring.successor_index(0), 0);
    }

    #[test]
    fn successor_of_exact_position_is_that_vnode() {
        let ring = uniform_ring(4, 16);
        for (i, v) in ring.vnodes().iter().enumerate() {
            assert_eq!(ring.successor_index(v.position), i);
        }
    }

    #[test]
    fn lut_successor_matches_binary_search() {
        for (n, w) in [(1usize, 1u32), (3, 7), (10, 128), (13, 200)] {
            let ring = uniform_ring(n, w);
            // Exact positions, neighbours, extremes and a pseudo-random
            // sweep must all agree with the binary-search answer.
            let mut probes: Vec<u64> = vec![0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX];
            for v in ring.vnodes() {
                probes.push(v.position);
                probes.push(v.position.wrapping_add(1));
                probes.push(v.position.wrapping_sub(1));
            }
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..2_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                probes.push(x);
            }
            for p in probes {
                assert_eq!(
                    ring.successor_index(p),
                    ring.successor_index_binary(p),
                    "position {p} on {n}x{w} ring"
                );
            }
        }
    }

    #[test]
    fn walk_visits_every_vnode_once() {
        let ring = uniform_ring(5, 32);
        let walked: Vec<u64> = ring.walk_from(u64::MAX / 2).map(|v| v.position).collect();
        assert_eq!(walked.len(), ring.len());
        let mut sorted = walked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ring.len());
        // And the walk is in clockwise (wrapping ascending) order: exactly
        // one descent where it wraps.
        let descents = walked.windows(2).filter(|w| w[0] > w[1]).count();
        assert!(descents <= 1);
    }

    #[test]
    fn distinct_servers_covers_all_servers() {
        let ring = uniform_ring(8, 64);
        let servers: Vec<ServerId> = ring
            .distinct_servers_from(object_position(ObjectId(7)))
            .collect();
        assert_eq!(servers.len(), 8);
        let mut idx: Vec<usize> = servers.iter().map(|s| s.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ownership_tracks_weights() {
        // Server 0 has 4x the weight of the others; its keyspace share
        // should be roughly 4x as large.
        let mut weights = vec![256u32; 9];
        weights.insert(0, 1024);
        let ring = HashRing::build(&weights);
        let own = ring.ownership_fractions();
        let total: f64 = own.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "fractions sum to 1, got {total}"
        );
        let others_mean: f64 = own[1..].iter().sum::<f64>() / 9.0;
        let ratio = own[0] / others_mean;
        assert!(
            (2.5..6.0).contains(&ratio),
            "expected ~4x ownership, got {ratio:.2}x"
        );
    }

    #[test]
    fn adding_a_server_moves_few_keys() {
        // The minimal-disruption property of Figure 1: growing the cluster
        // from 9 to 10 equal-weight servers relocates ~1/10 of first-copy
        // placements.
        let before = uniform_ring(9, 200);
        let after = uniform_ring(10, 200);
        let keys = 20_000u64;
        let mut moved = 0;
        for k in 0..keys {
            let pos = object_position(ObjectId(k));
            let b = before.distinct_servers_from(pos).next().unwrap();
            let a = after.distinct_servers_from(pos).next().unwrap();
            if a != b {
                moved += 1;
                // Every move must target the new server; old arcs are
                // untouched.
                assert_eq!(a, ServerId(9));
            }
        }
        let frac = moved as f64 / keys as f64;
        assert!(
            (0.05..0.17).contains(&frac),
            "expected ~10% moved, got {:.1}%",
            frac * 100.0
        );
    }
}
