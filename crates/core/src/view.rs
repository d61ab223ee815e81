//! A versioned view of the cluster: ring + layout + membership history.
//!
//! `ClusterView` bundles everything needed to answer "where do the
//! replicas of object X live at version V?" — the question at the heart of
//! both write-availability offloading and selective re-integration
//! (Algorithm 2's `locate_ser(OID, Ver)`).

use crate::engine::{DxEngine, EngineKind, JumpEngine, PowerEngine, RingEngine};
use crate::ids::{ObjectId, VersionId};
use crate::layout::Layout;
use crate::membership::{MembershipHistory, MembershipTable};
use crate::placement::{place_with, Placement, PlacementError, Strategy};
use crate::ring::HashRing;
use std::sync::Arc;

/// Immutable topology plus evolving membership, with versioned placement.
///
/// The topology (`ring`, `layout`) never changes after construction, so
/// it is shared: cloning a view — what every epoch publish does — copies
/// two pointers and the membership history, not the vnode table.
#[derive(Debug, Clone)]
pub struct ClusterView {
    ring: Arc<HashRing>,
    layout: Arc<Layout>,
    history: MembershipHistory,
    strategy: Strategy,
    replicas: usize,
    engine: EngineKind,
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
        ClusterView {
            ring,
            layout: Arc::new(layout),
            history,
            strategy,
            replicas,
            engine,
        }
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
        self.history.record(table)
    }

    /// Record an arbitrary membership table (failure injection etc.).
    pub fn record_membership(&mut self, table: MembershipTable) -> VersionId {
        self.history.record(table)
    }

    /// Replica locations of `oid` under the membership at `version`.
    ///
    /// An unrecorded `version` is a classified error, not a panic: a
    /// reader racing a concurrent membership change can momentarily hold
    /// a header stamped ahead of its pinned view snapshot.
    pub fn place_at(&self, oid: ObjectId, version: VersionId) -> Result<Placement, PlacementError> {
        let membership = self
            .history
            .get(version)
            .ok_or(PlacementError::UnknownVersion(version))?;
        // Non-ring engines are pure functions of the server count, so
        // constructing them per call is free (a couple of integer ops);
        // the ring engine borrows the prebuilt ring.
        match self.engine {
            EngineKind::Ring => place_with(
                &RingEngine::new(&self.ring),
                self.strategy,
                &self.layout,
                membership,
                oid,
                self.replicas,
            ),
            EngineKind::Jump => place_with(
                &JumpEngine::new(self.server_count()),
                self.strategy,
                &self.layout,
                membership,
                oid,
                self.replicas,
            ),
            EngineKind::Dx => place_with(
                &DxEngine::new(self.server_count()),
                self.strategy,
                &self.layout,
                membership,
                oid,
                self.replicas,
            ),
            EngineKind::Power => place_with(
                &PowerEngine::new(self.server_count()),
                self.strategy,
                &self.layout,
                membership,
                oid,
                self.replicas,
            ),
        }
    }

    /// Replica locations of `oid` under the current membership.
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
