//! Replica placement: original consistent hashing and the paper's
//! primary-server data placement (Algorithm 1, §III-B).
//!
//! Both algorithms walk the ring clockwise from the object's hash
//! position. The elastic variant adds three rules, visible as the "skip"
//! arrows of Figure 4:
//!
//! 1. inactive servers are skipped (this *is* write-availability
//!    offloading — a replica that would land on a powered-down server goes
//!    to the next eligible one instead, §III-E);
//! 2. once some replica sits on a primary, later replicas skip primaries,
//!    so primaries hold **exactly one** copy;
//! 3. the last replica is forced onto a primary if none was used yet.
//!
//! §III-B's special case: if fewer than `r − 1` secondaries are active,
//! primaries are temporarily treated as secondaries so the replication
//! level survives, as long as `r` active servers exist at all.
//!
//! Both algorithms are *adapters* over a [`PlacementEngine`] candidate
//! stream: the skip rules above never mention the ring, only "the next
//! candidate server". The `*_with` variants run the same adapter over
//! any backend (ring, jump, DxHash, power — see [`crate::engine`]); the
//! classic `place_original`/`place_primary` entry points are the ring
//! instantiation and produce byte-identical results to the pre-trait
//! code.

use crate::engine::{PlacementEngine, RingEngine};
use crate::ids::{ObjectId, ServerId};
use crate::layout::Layout;
use crate::membership::MembershipTable;
use crate::ring::HashRing;
use std::fmt;

/// Which placement algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Original consistent hashing: first `r` distinct active servers.
    Original,
    /// Primary-server data placement (Algorithm 1).
    Primary,
}

/// Replicas a [`Placement`] holds without touching the heap. Covers
/// every replication factor the paper evaluates (r = 2, 3) and the
/// current-plus-written candidate list of a read at r ≤ 3.
const INLINE_REPLICAS: usize = 6;

/// Backing storage of a [`Placement`]: a fixed array up to
/// [`INLINE_REPLICAS`], a `Vec` only above it. Unused inline slots stay
/// `ServerId(0)` and are never read. Each variant also carries
/// [`Placement::primary_slot`]: beside `len` it fits in padding, so a
/// placement stays 32 bytes.
#[derive(Clone)]
enum Servers {
    Inline {
        len: u8,
        primary: u8,
        slots: [ServerId; INLINE_REPLICAS],
    },
    Heap {
        primary: u8,
        servers: Vec<ServerId>,
    },
}

/// Ordered replica locations for one object (index 0 = first replica).
///
/// Every put and get builds one, so the servers live inline: placing an
/// object allocates nothing at the replication factors in use. Equality,
/// hashing and `Debug` are those of the server list, whichever storage
/// holds it.
#[derive(Clone)]
pub struct Placement {
    servers: Servers,
}

impl Placement {
    /// No replicas yet; the placers [`push`](Self::push) into it.
    fn empty() -> Self {
        Placement {
            servers: Servers::Inline {
                len: 0,
                primary: 0,
                slots: [ServerId(0); INLINE_REPLICAS],
            },
        }
    }

    /// Append the next replica location.
    fn push(&mut self, server: ServerId) {
        match &mut self.servers {
            Servers::Inline {
                len,
                primary,
                slots,
            } => match slots.get_mut(usize::from(*len)) {
                Some(slot) => {
                    *slot = server;
                    *len += 1;
                }
                None => {
                    let mut spilled = Vec::with_capacity(2 * INLINE_REPLICAS);
                    spilled.extend_from_slice(slots);
                    spilled.push(server);
                    self.servers = Servers::Heap {
                        primary: *primary,
                        servers: spilled,
                    };
                }
            },
            Servers::Heap { servers, .. } => servers.push(server),
        }
    }

    /// Hand-built placement: `servers` in order, the primary in slot 0.
    #[cfg(test)]
    pub(crate) fn test_only(servers: Vec<ServerId>) -> Self {
        let mut placement = Placement::empty();
        for server in servers {
            placement.push(server);
        }
        placement
    }

    /// Append the replica Algorithm 1 placed on a primary server.
    fn push_primary(&mut self, server: ServerId) {
        let slot = u8::try_from(self.len()).unwrap_or(u8::MAX);
        match &mut self.servers {
            Servers::Inline { primary, .. } | Servers::Heap { primary, .. } => *primary = slot,
        }
        self.push(server);
    }

    /// Replica locations in placement order.
    #[inline]
    pub fn servers(&self) -> &[ServerId] {
        match &self.servers {
            // ech-allow(D2): `len` only ever advances in `push`, one step
            // per slot filled, so it is at most `INLINE_REPLICAS`.
            Servers::Inline { len, slots, .. } => &slots[..usize::from(*len)],
            Servers::Heap { servers, .. } => servers,
        }
    }

    /// The index in [`servers`](Self::servers) of the replica a write
    /// may not miss: the slot Algorithm 1 filled with the primary, or
    /// slot 0 when it placed none (original consistent hashing or no
    /// active primary).
    #[inline]
    pub fn primary_slot(&self) -> usize {
        match self.servers {
            Servers::Inline { primary, .. } | Servers::Heap { primary, .. } => usize::from(primary),
        }
    }

    /// Number of replicas placed.
    #[inline]
    pub fn len(&self) -> usize {
        self.servers().len()
    }

    /// True when no replicas were placed (never returned by the placers).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.servers().is_empty()
    }

    /// True when `server` holds a replica.
    #[inline]
    pub fn contains(&self, server: ServerId) -> bool {
        self.servers().contains(&server)
    }

    /// This placement's servers followed by those of `other` it does not
    /// already name: the order a read tries the current placement and
    /// then the placement of the version the object was written at.
    pub fn then_unseen(&self, other: &Placement) -> Placement {
        let mut merged = self.clone();
        for &s in other.servers() {
            if !self.contains(s) {
                merged.push(s);
            }
        }
        merged
    }

    /// The replicas that sit on primary servers under `layout`.
    pub fn primary_replicas<'a>(
        &'a self,
        layout: &'a Layout,
    ) -> impl Iterator<Item = ServerId> + 'a {
        self.servers()
            .iter()
            .copied()
            .filter(move |&s| layout.is_primary(s))
    }
}

impl PartialEq for Placement {
    fn eq(&self, other: &Self) -> bool {
        self.servers() == other.servers()
    }
}

impl Eq for Placement {}

impl std::hash::Hash for Placement {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.servers().hash(state);
    }
}

impl fmt::Debug for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Placement")
            .field("servers", &self.servers())
            .finish()
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.servers().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

/// Placement failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// Fewer active servers than requested replicas: the cluster cannot
    /// hold `r` distinct copies.
    InsufficientActiveServers {
        /// Replicas requested.
        needed: usize,
        /// Active servers available.
        active: usize,
    },
    /// `r == 0` was requested.
    ZeroReplicas,
    /// A placement invariant failed (e.g. the relaxed ring walk found no
    /// eligible server even though enough were active). This indicates a
    /// bug, but the data path degrades with an error instead of
    /// panicking so the store keeps serving other objects.
    Internal(&'static str),
    /// Placement was requested under a membership version the history
    /// has not recorded. A concurrent writer racing a view snapshot can
    /// produce this; the epoch-retry loop resolves it on a fresh view.
    UnknownVersion(crate::ids::VersionId),
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::InsufficientActiveServers { needed, active } => write!(
                f,
                "cannot place {needed} replicas on {active} active servers"
            ),
            PlacementError::ZeroReplicas => write!(f, "replication factor must be at least 1"),
            PlacementError::Internal(what) => {
                write!(f, "placement invariant violated: {what}")
            }
            PlacementError::UnknownVersion(version) => {
                write!(f, "unknown membership version {version}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Original consistent hashing placement (§II-A): the first `r` distinct
/// *active* servers clockwise from the object's position.
///
/// With every server active this is the textbook algorithm; with servers
/// off it degenerates to "skip the missing node", which is how a CH store
/// behaves after a node departs the ring.
pub fn place_original(
    ring: &HashRing,
    membership: &MembershipTable,
    oid: ObjectId,
    replicas: usize,
) -> Result<Placement, PlacementError> {
    place_original_with(&RingEngine::new(ring), membership, oid, replicas)
}

/// [`place_original`] generalized over any [`PlacementEngine`]: take the
/// first `r` distinct active servers of the engine's candidate stream.
pub fn place_original_with<E: PlacementEngine>(
    engine: &E,
    membership: &MembershipTable,
    oid: ObjectId,
    replicas: usize,
) -> Result<Placement, PlacementError> {
    if replicas == 0 {
        return Err(PlacementError::ZeroReplicas);
    }
    let active = membership.active_count();
    if active < replicas {
        return Err(PlacementError::InsufficientActiveServers {
            needed: replicas,
            active,
        });
    }
    let mut chosen = Placement::empty();
    let mut cursor = engine.start(oid);
    while chosen.len() < replicas {
        let found = engine.search(oid, cursor, |s| {
            membership.is_active(s) && !chosen.contains(s)
        });
        // `active >= replicas` plus engine coverage guarantees a hit; if
        // not, degrade with a classified error rather than panicking
        // mid-put (analyzer rule D2).
        let Some((server, next)) = found else {
            return Err(PlacementError::Internal(
                "candidate walk found no active unchosen server",
            ));
        };
        chosen.push(server);
        cursor = next;
    }
    Ok(chosen)
}

/// What kind of server the current replica may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Need {
    /// Any active server (Algorithm 1, `next_server`).
    Any,
    /// Active secondary (`next_secondary`).
    Secondary,
    /// Active primary (`next_primary`).
    Primary,
}

/// Primary-server data placement — Algorithm 1 of the paper.
///
/// Walks the ring clockwise from the object's position; each replica
/// continues the walk from where the previous replica was found (wrapping
/// as needed), applying the skip rules described in the module docs.
///
/// Returns the replica locations in placement order. When at least one
/// primary and at least `r − 1` secondaries are active, the result holds
/// **exactly one** replica on a primary server; under the §III-B special
/// case (secondaries scarce) it holds **at least** one.
pub fn place_primary(
    ring: &HashRing,
    layout: &Layout,
    membership: &MembershipTable,
    oid: ObjectId,
    replicas: usize,
) -> Result<Placement, PlacementError> {
    place_primary_with(&RingEngine::new(ring), layout, membership, oid, replicas)
}

/// [`place_primary`] generalized over any [`PlacementEngine`]: Algorithm
/// 1's skip rules applied to the engine's candidate stream. Each replica
/// resumes the stream at the cursor returned for the previous one — the
/// backend-neutral form of "continue clockwise".
pub fn place_primary_with<E: PlacementEngine>(
    engine: &E,
    layout: &Layout,
    membership: &MembershipTable,
    oid: ObjectId,
    replicas: usize,
) -> Result<Placement, PlacementError> {
    if replicas == 0 {
        return Err(PlacementError::ZeroReplicas);
    }
    let active = membership.active_count();
    if active < replicas {
        return Err(PlacementError::InsufficientActiveServers {
            needed: replicas,
            active,
        });
    }

    // §III-B special case: not enough active secondaries for the r-1
    // non-primary copies — let primaries stand in as secondaries. Even if
    // every primary is active, secondaries number at least
    // `active - primary_count`, so the common well-provisioned case
    // resolves in O(1); only the scarce regime pays the exact O(n) count.
    let primaries_as_secondaries = if active >= layout.primary_count() + replicas.saturating_sub(1)
    {
        false
    } else {
        let active_primaries = membership
            .active_servers()
            .filter(|&s| layout.is_primary(s))
            .count();
        active - active_primaries < replicas.saturating_sub(1)
    };

    let mut chosen = Placement::empty();
    let mut has_primary = false;
    let mut cursor = engine.start(oid);

    for i in 1..=replicas {
        let need = if i == replicas {
            // Last replica (Algorithm 1, lines 11–15).
            if has_primary {
                Need::Secondary
            } else {
                Need::Primary
            }
        } else if has_primary {
            // Lines 4–5: a primary already holds a copy.
            Need::Secondary
        } else {
            // Lines 6–7: plain clockwise walk.
            Need::Any
        };

        // One full search from the cursor; a second pass relaxes the
        // need to `Any` so replication survives degenerate memberships
        // (e.g. no active primary at all). The primary-only search is
        // routed through the engine's prefix-restricted walk — for
        // uniform hashed streams a needle-in-haystack filter over all n
        // servers degrades to an O(n) sweep, while a draw over the
        // `0..p` prefix is O(1); the ring's default just delegates to
        // its weighted walk, unchanged.
        let mut found = None;
        for pass in 0..2 {
            let pass_need = if pass == 0 { need } else { Need::Any };
            let accept = |s: ServerId| {
                if !membership.is_active(s) || chosen.contains(s) {
                    return false;
                }
                match pass_need {
                    Need::Any => true,
                    Need::Secondary => !layout.is_primary(s) || primaries_as_secondaries,
                    Need::Primary => layout.is_primary(s),
                }
            };
            found = if pass_need == Need::Primary {
                let p = layout.primary_count().min(u32::MAX as usize) as u32;
                engine.search_primaries(oid, cursor, p, accept)
            } else {
                engine.search(oid, cursor, accept)
            };
            if found.is_some() {
                break;
            }
        }
        // `active >= replicas` guarantees the relaxed pass finds a
        // server; if it somehow does not, degrade with a classified error
        // rather than panicking mid-put (analyzer rule D2).
        let Some((server, next)) = found else {
            return Err(PlacementError::Internal(
                "relaxed candidate walk found no active unchosen server",
            ));
        };
        if layout.is_primary(server) && !has_primary {
            has_primary = true;
            chosen.push_primary(server);
        } else {
            chosen.push(server);
        }
        cursor = next;
    }

    Ok(chosen)
}

/// Dispatch on [`Strategy`].
pub fn place(
    strategy: Strategy,
    ring: &HashRing,
    layout: &Layout,
    membership: &MembershipTable,
    oid: ObjectId,
    replicas: usize,
) -> Result<Placement, PlacementError> {
    match strategy {
        Strategy::Original => place_original(ring, membership, oid, replicas),
        Strategy::Primary => place_primary(ring, layout, membership, oid, replicas),
    }
}

/// [`place`] generalized over any [`PlacementEngine`].
pub fn place_with<E: PlacementEngine>(
    engine: &E,
    strategy: Strategy,
    layout: &Layout,
    membership: &MembershipTable,
    oid: ObjectId,
    replicas: usize,
) -> Result<Placement, PlacementError> {
    match strategy {
        Strategy::Original => place_original_with(engine, membership, oid, replicas),
        Strategy::Primary => place_primary_with(engine, layout, membership, oid, replicas),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::PowerState;

    fn setup(n: usize) -> (HashRing, Layout) {
        let layout = Layout::equal_work(n, 10_000);
        let ring = layout.build_ring();
        (ring, layout)
    }

    /// The `Debug` form recorded from the `servers: Vec<ServerId>`
    /// representation, and a read's candidate list, hold for inline
    /// storage (r = 1, 2, 3) and the heap spill above it (r = 7, 10).
    #[test]
    fn placement_debug_form_does_not_depend_on_its_storage() {
        let recorded: [(usize, &[u32]); 5] = [
            (1, &[0]),
            (2, &[0, 8]),
            (3, &[0, 8, 2]),
            (7, &[0, 8, 2, 5, 3, 4, 9]),
            (10, &[0, 1, 8, 2, 5, 3, 4, 9, 6, 7]),
        ];
        let (ring, layout) = setup(10);
        let m = MembershipTable::full_power(10);
        for (replicas, servers) in recorded {
            let p = place_primary(&ring, &layout, &m, ObjectId(10010), replicas).unwrap();
            let want: Vec<ServerId> = servers.iter().map(|&s| ServerId(s)).collect();
            assert_eq!(p.servers(), want, "r = {replicas}");
            assert_eq!(
                format!("{p:?}"),
                format!("Placement {{ servers: {want:?} }}")
            );
            // A read's candidate list: the current servers, then the unseen
            // ones of another placement, spilling to the heap when it must.
            let other = place_primary(&ring, &layout, &m, ObjectId(7), replicas).unwrap();
            let merged = p.then_unseen(&other);
            let mut want = p.servers().to_vec();
            want.extend(other.servers().iter().filter(|s| !p.contains(**s)));
            assert_eq!(merged.servers(), want, "r = {replicas}");
        }
    }

    #[test]
    fn original_matches_distinct_walk() {
        let layout = Layout::uniform(10, 1000);
        let ring = layout.build_ring();
        let m = MembershipTable::full_power(10);
        for k in 0..500u64 {
            let p = place_original(&ring, &m, ObjectId(k), 3).unwrap();
            assert_eq!(p.len(), 3);
            let mut sorted = p.servers().to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicate server for oid {k}");
        }
    }

    #[test]
    fn original_skips_inactive() {
        let layout = Layout::uniform(10, 1000);
        let ring = layout.build_ring();
        let m = MembershipTable::active_prefix(10, 5);
        for k in 0..500u64 {
            let p = place_original(&ring, &m, ObjectId(k), 2).unwrap();
            for &s in p.servers() {
                assert!(m.is_active(s), "oid {k} placed on inactive {s}");
            }
        }
    }

    #[test]
    fn primary_places_exactly_one_replica_on_a_primary() {
        let (ring, layout) = setup(10);
        let m = MembershipTable::full_power(10);
        for k in 0..2000u64 {
            let p = place_primary(&ring, &layout, &m, ObjectId(k), 2).unwrap();
            assert_eq!(p.len(), 2);
            let primaries = p.primary_replicas(&layout).count();
            assert_eq!(primaries, 1, "oid {k}: placement {p}");
        }
    }

    #[test]
    fn primary_invariant_holds_for_r3_and_r4() {
        let (ring, layout) = setup(20);
        let m = MembershipTable::full_power(20);
        for r in [3usize, 4] {
            for k in 0..1000u64 {
                let p = place_primary(&ring, &layout, &m, ObjectId(k), r).unwrap();
                assert_eq!(p.len(), r);
                assert_eq!(p.primary_replicas(&layout).count(), 1, "r={r} oid {k}: {p}");
                let primary = p.servers()[p.primary_slot()];
                assert!(
                    layout.is_primary(primary),
                    "r={r} oid {k}: slot names {primary}"
                );
            }
        }
    }

    #[test]
    fn primary_placement_replicas_are_distinct_and_active() {
        let (ring, layout) = setup(10);
        let m = MembershipTable::active_prefix(10, 6);
        for k in 0..1000u64 {
            let p = place_primary(&ring, &layout, &m, ObjectId(k), 3).unwrap();
            let mut sorted = p.servers().to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3);
            assert!(p.servers().iter().all(|&s| m.is_active(s)));
        }
    }

    #[test]
    fn scaling_down_to_primaries_only_keeps_data_available() {
        // With only the p primaries active and r = 2 <= p, the special
        // case kicks in: both replicas land on primaries.
        let (ring, layout) = setup(10);
        let p = layout.primary_count();
        assert_eq!(p, 2);
        let m = MembershipTable::active_prefix(10, p);
        for k in 0..300u64 {
            let pl = place_primary(&ring, &layout, &m, ObjectId(k), 2).unwrap();
            assert_eq!(pl.len(), 2);
            assert!(pl
                .servers()
                .iter()
                .all(|&s| layout.is_primary(s) && m.is_active(s)));
        }
    }

    #[test]
    fn scarce_secondaries_relax_to_at_least_one_primary() {
        // 3 active (2 primaries + 1 secondary), r = 3: only 1 active
        // secondary < r - 1 = 2, so primaries serve as secondaries and the
        // "exactly one" invariant relaxes to "at least one".
        let (ring, layout) = setup(10);
        let m = MembershipTable::active_prefix(10, 3);
        for k in 0..300u64 {
            let pl = place_primary(&ring, &layout, &m, ObjectId(k), 3).unwrap();
            assert_eq!(pl.len(), 3);
            assert!(pl.primary_replicas(&layout).count() >= 1);
        }
    }

    #[test]
    fn insufficient_active_servers_is_an_error() {
        let (ring, layout) = setup(10);
        let m = MembershipTable::active_prefix(10, 2);
        let err = place_primary(&ring, &layout, &m, ObjectId(1), 3).unwrap_err();
        assert_eq!(
            err,
            PlacementError::InsufficientActiveServers {
                needed: 3,
                active: 2
            }
        );
        let err = place_original(&ring, &m, ObjectId(1), 3).unwrap_err();
        assert!(matches!(
            err,
            PlacementError::InsufficientActiveServers { .. }
        ));
    }

    #[test]
    fn zero_replicas_is_an_error() {
        let (ring, layout) = setup(4);
        let m = MembershipTable::full_power(4);
        assert_eq!(
            place_primary(&ring, &layout, &m, ObjectId(1), 0),
            Err(PlacementError::ZeroReplicas)
        );
        assert_eq!(
            place_original(&ring, &m, ObjectId(1), 0),
            Err(PlacementError::ZeroReplicas)
        );
    }

    #[test]
    fn no_active_primary_still_replicates() {
        // Pathological membership (primaries off) — placement must still
        // produce r active distinct servers via the relaxed pass.
        let (ring, layout) = setup(10);
        let mut m = MembershipTable::full_power(10);
        for i in 0..layout.primary_count() {
            m = m.with_state(ServerId(i as u32), PowerState::Off);
        }
        for k in 0..200u64 {
            let pl = place_primary(&ring, &layout, &m, ObjectId(k), 2).unwrap();
            assert_eq!(pl.len(), 2);
            assert!(pl.servers().iter().all(|&s| m.is_active(s)));
        }
    }

    #[test]
    fn hashed_backends_keep_primary_invariant_under_deep_cursors() {
        // Regression for the forced-primary pass over hashed engines:
        // with most secondaries off, the first r-1 replicas routinely
        // consume far more than PROBES candidates, handing the last
        // replica's primary-band search a cursor past the band stream's
        // period. The old non-cyclic band walk returned None there and
        // the relaxed pass could place a third secondary, breaking the
        // exactly-one-on-a-primary invariant.
        use crate::engine::{DxEngine, JumpEngine, PowerEngine};
        let n = 64usize;
        let layout = Layout::equal_work(n, 10_000);
        let p = layout.primary_count();
        assert_eq!(p, 9);
        // All primaries plus three tail secondaries active: secondaries
        // plentiful enough (3 >= r - 1) that the exactly-one invariant
        // applies, scarce enough that secondary hunts run deep into the
        // sweep phase.
        let mut states = vec![PowerState::Off; n];
        for s in (0..p).chain(n - 3..n) {
            states[s] = PowerState::On;
        }
        let m = MembershipTable::from_states(states);
        fn check<E: PlacementEngine>(engine: &E, layout: &Layout, m: &MembershipTable) {
            for k in 0..4000u64 {
                let pl = place_primary_with(engine, layout, m, ObjectId(k), 3).unwrap();
                assert_eq!(pl.len(), 3);
                assert_eq!(
                    pl.primary_replicas(layout).count(),
                    1,
                    "oid {k}: placement {pl}"
                );
            }
        }
        check(&JumpEngine::new(n), &layout, &m);
        check(&DxEngine::new(n), &layout, &m);
        check(&PowerEngine::new(n), &layout, &m);
    }

    #[test]
    fn offloading_redirects_only_affected_replicas() {
        // Turning off the tail servers must not disturb replicas that were
        // already on active servers (the first-copy stability behind
        // selective re-integration).
        let (ring, layout) = setup(10);
        let full = MembershipTable::full_power(10);
        let small = MembershipTable::active_prefix(10, 8);
        let mut moved = 0usize;
        let mut total = 0usize;
        for k in 0..2000u64 {
            let a = place_primary(&ring, &layout, &full, ObjectId(k), 2).unwrap();
            let b = place_primary(&ring, &layout, &small, ObjectId(k), 2).unwrap();
            for (ra, rb) in a.servers().iter().zip(b.servers()) {
                total += 1;
                if ra != rb {
                    moved += 1;
                    // The replica moved because its full-power home is now
                    // inactive, or because an earlier replica's move
                    // re-shuffled the walk; the dominant cause is the
                    // former.
                }
            }
        }
        let frac = moved as f64 / total as f64;
        assert!(
            frac < 0.35,
            "too many replicas moved when 2 servers went off: {:.1}%",
            frac * 100.0
        );
    }

    #[test]
    fn strategy_dispatch() {
        let (ring, layout) = setup(10);
        let m = MembershipTable::full_power(10);
        let a = place(Strategy::Original, &ring, &layout, &m, ObjectId(5), 2).unwrap();
        let b = place_original(&ring, &m, ObjectId(5), 2).unwrap();
        assert_eq!(a, b);
        let c = place(Strategy::Primary, &ring, &layout, &m, ObjectId(5), 2).unwrap();
        let d = place_primary(&ring, &layout, &m, ObjectId(5), 2).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn placement_is_deterministic() {
        let (ring, layout) = setup(10);
        let m = MembershipTable::active_prefix(10, 7);
        for k in 0..100u64 {
            let a = place_primary(&ring, &layout, &m, ObjectId(k), 3).unwrap();
            let b = place_primary(&ring, &layout, &m, ObjectId(k), 3).unwrap();
            assert_eq!(a, b);
        }
    }
}
