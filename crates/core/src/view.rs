//! A versioned view of the cluster: ring + layout + membership history.
//!
//! `ClusterView` bundles everything needed to answer "where do the
//! replicas of object X live at version V?" — the question at the heart of
//! both write-availability offloading and selective re-integration
//! (Algorithm 2's `locate_ser(OID, Ver)`).
//!
//! On the ring that answer depends on two things only: the vnode arc the
//! object hashes into and the membership content (its epoch class,
//! [`MembershipHistory::epoch_class`]). So the view runs Algorithm 1 once
//! per arc when it records a class it has not seen, and a lookup is one
//! successor search plus one row read.

use crate::engine::{DxEngine, EngineKind, JumpEngine, PlacementEngine, PowerEngine, RingEngine};
use crate::hash::object_position;
use crate::ids::{ObjectId, ServerId, VersionId};
use crate::layout::Layout;
use crate::membership::{MembershipHistory, MembershipTable};
use crate::placement::{place_from, place_with, Placement, PlacementError, Strategy};
use crate::ring::{HashRing, VirtualNode};
use std::fmt;
use std::sync::Arc;

/// Algorithm 1's answer for every vnode arc under one membership class.
///
/// Row `i` is the ring walk from vnode `i`'s own position: the walk
/// depends only on where it starts its first search, and every object
/// whose position has vnode `i` as its successor starts there. A row is
/// `r` server ids and the primary slot, 4r + 1 bytes per vnode (219 KB
/// for `paper()`'s 24,288 vnodes at r = 2).
struct ArcRows {
    /// `r` servers per row, rows in vnode order.
    servers: Box<[ServerId]>,
    /// [`Placement::primary_slot`] of each row.
    primary: Box<[u8]>,
}

impl ArcRows {
    /// Fill the rows in one sweep against the ring order. A vnode's row
    /// is the row of the vnode after it when its server is inactive
    /// (every search of every walk rejects it) or owns that next vnode
    /// too (a search accepts or rejects both alike, and once the server
    /// is chosen every later search rejects both). Only the other vnodes
    /// run the ring walk from their own position. A class with fewer
    /// than `r` active servers fails every walk with the same error, and
    /// that error is what the class stores.
    fn build(
        ring: &HashRing,
        layout: &Layout,
        strategy: Strategy,
        membership: &MembershipTable,
        replicas: usize,
    ) -> Result<Self, PlacementError> {
        let engine = RingEngine::new(ring);
        // The ring's search never reads the oid.
        let walk = |position| {
            place_from(
                &engine,
                strategy,
                layout,
                membership,
                ObjectId(0),
                position,
                replicas,
            )
        };
        let active = |v: &VirtualNode| membership.is_active(v.server);
        let vnodes = ring.vnodes();
        // The row after the last vnode is the first vnode's: the walk
        // from the first active vnode.
        let mut next = walk(vnodes.iter().find(|v| active(v)).map_or(0, |v| v.position))?;
        let mut servers = vec![ServerId(0); vnodes.len() * replicas];
        let mut primary = vec![0u8; vnodes.len()];
        let rows = vnodes
            .iter()
            .zip(servers.chunks_mut(replicas))
            .zip(primary.iter_mut());
        let mut after = vnodes.first().map(|v| v.server);
        for ((v, row), slot) in rows.rev() {
            if active(v) && after != Some(v.server) {
                next = walk(v.position)?;
            }
            after = Some(v.server);
            for (cell, &server) in row.iter_mut().zip(next.servers()) {
                *cell = server;
            }
            *slot = u8::try_from(next.primary_slot()).unwrap_or(u8::MAX);
        }
        Ok(ArcRows {
            servers: servers.into_boxed_slice(),
            primary: primary.into_boxed_slice(),
        })
    }

    /// The placement of every object in vnode `arc`'s arc.
    #[inline]
    fn placement(&self, arc: usize, replicas: usize) -> Result<Placement, PlacementError> {
        let start = arc * replicas;
        match (
            self.servers.get(start..start + replicas),
            self.primary.get(arc),
        ) {
            (Some(servers), Some(&primary)) => Ok(Placement::from_row(servers, primary)),
            _ => Err(PlacementError::Internal("vnode arc outside the memo")),
        }
    }
}

impl fmt::Debug for ArcRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArcRows")
            .field("rows", &self.primary.len())
            .finish()
    }
}

/// The memo of one membership class, shared by every version and every
/// view of that class.
type ClassRows = Arc<Result<ArcRows, PlacementError>>;

/// Immutable topology plus evolving membership, with versioned placement.
///
/// The topology (`ring`, `layout`) never changes after construction, so
/// it is shared: cloning a view — what every epoch publish does — copies
/// two pointers, the membership history and one pointer per version to
/// its class's memo, not the vnode table or any memo row.
#[derive(Debug, Clone)]
pub struct ClusterView {
    ring: Arc<HashRing>,
    layout: Arc<Layout>,
    history: MembershipHistory,
    strategy: Strategy,
    replicas: usize,
    engine: EngineKind,
    /// `rows[v - 1]` memoises version `v` on the ring engine; versions of
    /// one epoch class share one `Arc`, so memory grows with classes, not
    /// versions. Empty for the hashed engines, which walk per lookup.
    rows: Vec<ClassRows>,
}

impl ClusterView {
    /// Build a view from a layout, starting at full power (version 1),
    /// placing through the default ring engine.
    pub fn new(layout: Layout, strategy: Strategy, replicas: usize) -> Self {
        Self::with_engine(layout, strategy, replicas, EngineKind::Ring)
    }

    /// [`ClusterView::new`] with an explicit placement backend. The ring
    /// is always built (layout analysis and the `Ring` engine need it);
    /// non-ring engines are stateless and constructed per lookup.
    pub fn with_engine(
        layout: Layout,
        strategy: Strategy,
        replicas: usize,
        engine: EngineKind,
    ) -> Self {
        assert!(replicas >= 1, "need at least one replica");
        assert!(
            replicas <= layout.server_count(),
            "replication factor exceeds cluster size"
        );
        let ring = Arc::new(layout.build_ring());
        let history = MembershipHistory::new(MembershipTable::full_power(layout.server_count()));
        let mut view = ClusterView {
            ring,
            layout: Arc::new(layout),
            history,
            strategy,
            replicas,
            engine,
            rows: Vec::new(),
        };
        view.memoise_current();
        view
    }

    /// The hash ring.
    #[inline]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The weight layout.
    #[inline]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The membership history.
    #[inline]
    pub fn history(&self) -> &MembershipHistory {
        &self.history
    }

    /// The placement strategy in use.
    #[inline]
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The placement backend in use.
    #[inline]
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Replication factor `r`.
    #[inline]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Total number of servers `n`.
    #[inline]
    pub fn server_count(&self) -> usize {
        self.layout.server_count()
    }

    /// Current (newest) membership version.
    #[inline]
    pub fn current_version(&self) -> VersionId {
        self.history.current_version()
    }

    /// Current membership table.
    #[inline]
    pub fn current_membership(&self) -> &MembershipTable {
        self.history.current()
    }

    /// Resize the cluster to `active` servers (an expansion-chain prefix),
    /// recording and returning the new version.
    pub fn resize(&mut self, active: usize) -> VersionId {
        let table = MembershipTable::active_prefix(self.server_count(), active);
        self.record_membership(table)
    }

    /// Record an arbitrary membership table (failure injection etc.).
    pub fn record_membership(&mut self, table: MembershipTable) -> VersionId {
        let version = self.history.record(table);
        self.memoise_current();
        version
    }

    /// Give the current version its class's rows: shared when an earlier
    /// version opened the class, built (one walk per vnode) when it opens
    /// it itself. Ring engine only.
    fn memoise_current(&mut self) {
        if self.engine != EngineKind::Ring {
            return;
        }
        let version = self.current_version();
        let seen = self
            .history
            .epoch_class(version)
            .filter(|&class| class != version)
            .and_then(|class| self.class_rows(class))
            .cloned();
        let rows = seen.unwrap_or_else(|| {
            Arc::new(ArcRows::build(
                &self.ring,
                &self.layout,
                self.strategy,
                self.history.current(),
                self.replicas,
            ))
        });
        self.rows.push(rows);
    }

    /// The memo rows of `version`'s class (ring engine only). Two views
    /// or two versions of one class return the same `Arc`.
    #[inline]
    fn class_rows(&self, version: VersionId) -> Option<&ClassRows> {
        self.rows.get((version.0 as usize).wrapping_sub(1))
    }

    /// Replica locations of `oid` under the membership at `version`.
    ///
    /// An unrecorded `version` is a classified error, not a panic: a
    /// reader racing a concurrent membership change can momentarily hold
    /// a header stamped ahead of its pinned view snapshot.
    #[inline]
    pub fn place_at(&self, oid: ObjectId, version: VersionId) -> Result<Placement, PlacementError> {
        let n = self.server_count();
        // The hashed engines are pure functions of the server count, so
        // constructing them per call is free (a couple of integer ops).
        match self.engine {
            EngineKind::Ring => self.row_at(object_position(oid), version),
            EngineKind::Jump => self.walk(&JumpEngine::new(n), oid, version),
            EngineKind::Dx => self.walk(&DxEngine::new(n), oid, version),
            EngineKind::Power => self.walk(&PowerEngine::new(n), oid, version),
        }
    }

    /// The memo row of the arc holding ring `position`, at `version`.
    #[inline]
    fn row_at(&self, position: u64, version: VersionId) -> Result<Placement, PlacementError> {
        let rows = self
            .class_rows(version)
            .ok_or(PlacementError::UnknownVersion(version))?;
        match rows.as_ref() {
            Ok(rows) => rows.placement(self.ring.successor_index(position), self.replicas),
            Err(e) => Err(*e),
        }
    }

    /// Algorithm 1 over `engine` from `oid`'s own start, at `version`.
    fn walk<E: PlacementEngine>(
        &self,
        engine: &E,
        oid: ObjectId,
        version: VersionId,
    ) -> Result<Placement, PlacementError> {
        let membership = self
            .history
            .get(version)
            .ok_or(PlacementError::UnknownVersion(version))?;
        place_with(
            engine,
            self.strategy,
            &self.layout,
            membership,
            oid,
            self.replicas,
        )
    }

    /// Replica locations of `oid` under the current membership.
    #[inline]
    pub fn place_current(&self, oid: ObjectId) -> Result<Placement, PlacementError> {
        self.place_at(oid, self.current_version())
    }

    /// True when a write at the current version is *dirty* (§III-E2):
    /// any version that is not full power offloads at least potentially.
    pub fn write_is_dirty(&self) -> bool {
        !self.current_membership().is_full_power()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::PowerState;

    fn view() -> ClusterView {
        ClusterView::new(Layout::equal_work(10, 10_000), Strategy::Primary, 2)
    }

    #[test]
    fn starts_at_full_power_version_one() {
        let v = view();
        assert_eq!(v.current_version(), VersionId(1));
        assert!(v.current_membership().is_full_power());
        assert!(!v.write_is_dirty());
    }

    #[test]
    fn resize_records_versions() {
        let mut v = view();
        let v2 = v.resize(8);
        assert_eq!(v2, VersionId(2));
        assert_eq!(v.current_membership().active_count(), 8);
        assert!(v.write_is_dirty());
        let v3 = v.resize(10);
        assert_eq!(v3, VersionId(3));
        assert!(!v.write_is_dirty());
    }

    #[test]
    fn historical_placement_stays_resolvable() {
        let mut v = view();
        let full = v.place_at(ObjectId(10010), VersionId(1)).unwrap();
        v.resize(5);
        let small = v.place_current(ObjectId(10010)).unwrap();
        v.resize(10);
        // The version-1 placement must still be answerable and identical.
        assert_eq!(v.place_at(ObjectId(10010), VersionId(1)).unwrap(), full);
        assert_eq!(v.place_at(ObjectId(10010), VersionId(2)).unwrap(), small);
    }

    #[test]
    fn unknown_version_is_a_classified_error() {
        let v = view();
        let err = v.place_at(ObjectId(1), VersionId(99)).unwrap_err();
        assert_eq!(err, PlacementError::UnknownVersion(VersionId(99)));
        assert!(err.to_string().contains("unknown membership version"));
    }

    #[test]
    #[should_panic(expected = "replication factor exceeds")]
    fn oversized_replication_panics() {
        ClusterView::new(Layout::equal_work(3, 300), Strategy::Primary, 4);
    }

    #[test]
    fn default_engine_is_ring_and_matches_legacy_placement() {
        let v = view();
        assert_eq!(v.engine(), EngineKind::Ring);
        // The trait-routed ring placement must equal the direct call.
        let direct = crate::placement::place_primary(
            v.ring(),
            v.layout(),
            v.current_membership(),
            ObjectId(42),
            2,
        )
        .unwrap();
        assert_eq!(v.place_current(ObjectId(42)).unwrap(), direct);
    }

    /// Views whose histories cover every class the memo must get right:
    /// each active prefix down to one server (below `r` a class stores
    /// its error), an irregular membership with a primary off, one with
    /// every primary off, and back to full power; over both strategies,
    /// r = 1, 2, 3, one `paper()`-sized ring, and r = 7, whose rows read
    /// back into heap-backed placements.
    fn memo_views() -> &'static [ClusterView] {
        static VIEWS: std::sync::OnceLock<Vec<ClusterView>> = std::sync::OnceLock::new();
        VIEWS.get_or_init(|| {
            let mut shapes = vec![
                (Strategy::Primary, 10_000, 2),
                (Strategy::Primary, 1_000, 7),
            ];
            for strategy in [Strategy::Primary, Strategy::Original] {
                shapes.extend((1..=3).map(|r| (strategy, 1_000, r)));
            }
            shapes
                .into_iter()
                .map(|(strategy, base, r)| {
                    let mut v =
                        ClusterView::new(Layout::for_strategy(strategy, 10, base), strategy, r);
                    for active in (1..10).rev() {
                        v.resize(active);
                    }
                    let full = MembershipTable::full_power(10);
                    v.record_membership(full.with_state(ServerId(0), PowerState::Off));
                    let primaries_off = (0..v.layout().primary_count() as u32)
                        .fold(full, |m, s| m.with_state(ServerId(s), PowerState::Off));
                    v.record_membership(primaries_off);
                    v.resize(10);
                    v
                })
                .collect()
        })
    }

    /// Every recorded version of `v` with its membership.
    fn versions(v: &ClusterView) -> impl Iterator<Item = (VersionId, &MembershipTable)> {
        (1..=v.current_version().0).map(move |ver| {
            let ver = VersionId(ver);
            (ver, v.history().get(ver).unwrap())
        })
    }

    /// Placements are equal when their servers and primary slots are.
    fn same(a: &Result<Placement, PlacementError>, b: &Result<Placement, PlacementError>) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => a == b && a.primary_slot() == b.primary_slot(),
            _ => a == b,
        }
    }

    #[test]
    fn memo_equals_the_walk_at_every_arc_boundary() {
        for v in memo_views() {
            let engine = RingEngine::new(v.ring());
            for (ver, m) in versions(v) {
                let boundaries = v.ring().vnodes().iter().map(|n| n.position);
                let positions = boundaries
                    .flat_map(|p| [p, p.wrapping_add(1)])
                    .chain([0, u64::MAX]);
                for position in positions {
                    let walk = place_from(
                        &engine,
                        v.strategy(),
                        v.layout(),
                        m,
                        ObjectId(0),
                        position,
                        v.replicas(),
                    );
                    let memo = v.row_at(position, ver);
                    assert!(
                        same(&memo, &walk),
                        "{:?} r={} {ver} at {position}: memo {memo:?}, walk {walk:?}",
                        v.strategy(),
                        v.replicas()
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn memo_equals_the_walk_for_random_oids(oid in 0u64..u64::MAX) {
            for v in memo_views() {
                let engine = RingEngine::new(v.ring());
                for (ver, m) in versions(v) {
                    let walk =
                        place_with(&engine, v.strategy(), v.layout(), m, ObjectId(oid), v.replicas());
                    let memo = v.place_at(ObjectId(oid), ver);
                    proptest::prop_assert!(same(&memo, &walk), "{:?} r={} {}", v.strategy(), v.replicas(), ver);
                }
            }
        }
    }

    #[test]
    fn a_class_seen_before_builds_no_rows() {
        let mut v = view();
        let v2 = v.resize(5);
        let v3 = v.resize(10);
        let rows = |view: &ClusterView, ver| Arc::clone(view.class_rows(ver).unwrap());
        assert!(Arc::ptr_eq(&rows(&v, VersionId(1)), &rows(&v, v3)));
        assert!(!Arc::ptr_eq(&rows(&v, VersionId(1)), &rows(&v, v2)));
        // A clone, as every epoch publish makes, shares every class too.
        let mut next = v.clone();
        let v4 = next.resize(5);
        assert!(Arc::ptr_eq(&rows(&v, v2), &rows(&next, v4)));
        assert!(Arc::ptr_eq(&rows(&v, VersionId(1)), &rows(&next, v3)));
    }

    #[test]
    fn non_ring_engines_uphold_cluster_invariants() {
        for kind in [EngineKind::Jump, EngineKind::Dx, EngineKind::Power] {
            let mut v = ClusterView::with_engine(
                Layout::equal_work(10, 10_000),
                Strategy::Primary,
                2,
                kind,
            );
            assert_eq!(v.engine(), kind);
            for k in 0..300u64 {
                let p = v.place_current(ObjectId(k)).unwrap();
                assert_eq!(p.len(), 2);
                assert_eq!(p.primary_replicas(v.layout()).count(), 1, "{kind} oid {k}");
            }
            v.resize(6);
            for k in 0..300u64 {
                let p = v.place_current(ObjectId(k)).unwrap();
                assert!(p
                    .servers()
                    .iter()
                    .all(|&s| v.current_membership().is_active(s)));
            }
        }
    }
}
