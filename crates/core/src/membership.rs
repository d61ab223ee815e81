//! Cluster membership versioning (§III-E1).
//!
//! Every resize produces a new *version* (epoch) with an associated
//! *membership table* recording each server's power state. Keeping the full
//! history lets the re-integration engine resolve, for any historically
//! written object, exactly which servers held its replicas at write time —
//! "no matter how many versions have passed".

use crate::ids::{ServerId, VersionId};

/// Power state of one server in one membership version.
///
/// The elastic design keeps powered-down servers *in* the cluster (they
/// "never leave the cluster when they are turned down", §IV); `Off` is a
/// placement-visible state, not a departure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerState {
    /// Active: serves I/O and receives placements.
    On,
    /// Powered down: skipped by elastic placement, its data intact.
    Off,
}

/// The power state of every server at one version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipTable {
    states: Vec<PowerState>,
    /// Cached count of `On` entries. Placement consults the active count
    /// on every lookup, so it must not cost an O(n) scan — at 10⁴
    /// servers that scan, not the hash, dominates lookup latency.
    active: usize,
}

impl MembershipTable {
    /// All `n` servers on (a *full-power* table).
    pub fn full_power(n: usize) -> Self {
        assert!(n > 0, "cluster must have at least one server");
        MembershipTable {
            states: vec![PowerState::On; n],
            active: n,
        }
    }

    /// The expansion-chain state with ranks `1..=active` on and the rest
    /// off. This is the only membership shape the elastic power controller
    /// produces (servers turn off from the tail of the chain).
    ///
    /// # Panics
    /// Panics if `active == 0` or `active > n`.
    pub fn active_prefix(n: usize, active: usize) -> Self {
        assert!(
            (1..=n).contains(&active),
            "active count {active} out of range 1..={n}"
        );
        let mut states = vec![PowerState::On; active];
        states.resize(n, PowerState::Off);
        MembershipTable { states, active }
    }

    /// Build from an explicit state vector (for irregular states in tests
    /// and failure-injection scenarios).
    pub fn from_states(states: Vec<PowerState>) -> Self {
        assert!(!states.is_empty(), "cluster must have at least one server");
        let active = states.iter().filter(|&&s| s == PowerState::On).count();
        MembershipTable { states, active }
    }

    /// Number of servers in the cluster (on or off).
    #[inline]
    pub fn server_count(&self) -> usize {
        self.states.len()
    }

    /// Power state of `server`.
    #[inline]
    pub fn state(&self, server: ServerId) -> PowerState {
        self.states[server.index()]
    }

    /// True when `server` is on. Unknown server ids are not active.
    #[inline]
    pub fn is_active(&self, server: ServerId) -> bool {
        self.states
            .get(server.index())
            .is_some_and(|&s| s == PowerState::On)
    }

    /// Number of active servers.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// True when every server is on. Re-integration completing under a
    /// full-power version is what allows dirty entries to be dropped
    /// (Algorithm 2, lines 11–13).
    #[inline]
    pub fn is_full_power(&self) -> bool {
        self.active == self.states.len()
    }

    /// Iterator over active servers in rank order.
    pub fn active_servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == PowerState::On)
            .map(|(i, _)| ServerId(i as u32))
    }

    /// Copy of this table with `server` set to `state`.
    ///
    /// # Panics
    /// Panics on an unknown server id: silently dropping a power
    /// transition would leave the cluster acting on stale membership,
    /// which is strictly worse than failing loudly at the call site.
    pub fn with_state(&self, server: ServerId, state: PowerState) -> Self {
        let mut t = self.clone();
        // ech-allow(D2): a power transition for an out-of-range server is
        // a caller logic bug; masking it as a no-op would corrupt the
        // membership history that every placement decision derives from.
        let slot = &mut t.states[server.index()];
        let old = *slot;
        *slot = state;
        t.active =
            t.active - usize::from(old == PowerState::On) + usize::from(state == PowerState::On);
        t
    }
}

/// Append-only history of membership tables, one per version.
///
/// Versions start at [`VersionId::FIRST`] and increase by one per recorded
/// table, mirroring Sheepdog's epoch counter.
#[derive(Debug, Clone)]
pub struct MembershipHistory {
    tables: Vec<MembershipTable>,
    /// `classes[i]` is the *epoch class* of version `i + 1`: the first
    /// version whose table is content-equal. Placement is a pure function
    /// of (table content, object), so any two versions in the same class
    /// place identically — a read whose header names a version of the
    /// current class skips the second placement walk (down to `k` and
    /// back to full power repeats the full-power class).
    classes: Vec<VersionId>,
}

impl MembershipHistory {
    /// Start a history at version 1 with `initial` membership.
    pub fn new(initial: MembershipTable) -> Self {
        MembershipHistory {
            tables: vec![initial],
            classes: vec![VersionId(1)],
        }
    }

    /// Record a new membership table, returning its version.
    ///
    /// # Panics
    /// Panics if the server count differs from the history's — elastic
    /// clusters resize by powering servers on/off, never by changing `n`.
    pub fn record(&mut self, table: MembershipTable) -> VersionId {
        let fixed = self
            .tables
            .first()
            .map_or(table.server_count(), MembershipTable::server_count);
        assert_eq!(
            table.server_count(),
            fixed,
            "membership history is for a fixed server set"
        );
        let class = self.class_of(&table);
        self.tables.push(table);
        self.classes.push(class);
        self.current_version()
    }

    /// The class a table joins: the first version with identical content,
    /// or the about-to-be-recorded version itself. Only class heads are
    /// compared (entries that are their own class), so the scan costs one
    /// table comparison per *distinct* membership seen so far.
    fn class_of(&self, table: &MembershipTable) -> VersionId {
        for (i, t) in self.tables.iter().enumerate() {
            let head = VersionId(i as u64 + 1);
            if self.classes.get(i) == Some(&head) && t == table {
                return head;
            }
        }
        VersionId(self.tables.len() as u64 + 1)
    }

    /// Epoch class of `version` (`None` for unrecorded versions): the
    /// first version whose membership content equals `version`'s.
    /// Placements at two versions of the same class are identical.
    pub fn epoch_class(&self, version: VersionId) -> Option<VersionId> {
        if version.0 == 0 {
            return None;
        }
        self.classes.get(version.0 as usize - 1).copied()
    }

    /// The newest version.
    #[inline]
    pub fn current_version(&self) -> VersionId {
        VersionId(self.tables.len() as u64)
    }

    /// The newest membership table.
    #[inline]
    pub fn current(&self) -> &MembershipTable {
        // ech-allow(D2): `new` seeds one table and the history is
        // append-only, so `last()` always yields; there is no sensible
        // table to substitute if that invariant ever broke.
        self.tables.last().expect("history is never empty")
    }

    /// Membership table at `version`, if recorded.
    pub fn get(&self, version: VersionId) -> Option<&MembershipTable> {
        if version.0 == 0 {
            return None;
        }
        self.tables.get(version.0 as usize - 1)
    }

    /// Number of active servers at `version` (`num_ser` in Algorithm 2).
    ///
    /// # Panics
    /// Panics on an unknown version — callers must only hold versions the
    /// history issued.
    pub fn active_count(&self, version: VersionId) -> usize {
        self.get(version)
            .unwrap_or_else(|| panic!("unknown membership version {version}"))
            .active_count()
    }

    /// Number of versions recorded so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Histories are never empty; provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_power_table() {
        let t = MembershipTable::full_power(10);
        assert!(t.is_full_power());
        assert_eq!(t.active_count(), 10);
        assert_eq!(t.server_count(), 10);
    }

    #[test]
    fn active_prefix_shapes() {
        let t = MembershipTable::active_prefix(10, 6);
        assert_eq!(t.active_count(), 6);
        assert!(!t.is_full_power());
        assert!(t.is_active(ServerId(5)));
        assert!(!t.is_active(ServerId(6)));
        let active: Vec<_> = t.active_servers().collect();
        assert_eq!(active.len(), 6);
        assert_eq!(active[0], ServerId(0));
        assert_eq!(active[5], ServerId(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_active_prefix_panics() {
        MembershipTable::active_prefix(10, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_active_prefix_panics() {
        MembershipTable::active_prefix(10, 11);
    }

    #[test]
    fn with_state_does_not_mutate_original() {
        let t = MembershipTable::full_power(4);
        let t2 = t.with_state(ServerId(3), PowerState::Off);
        assert!(t.is_full_power());
        assert!(!t2.is_full_power());
        assert_eq!(t2.active_count(), 3);
    }

    #[test]
    fn history_versions_are_sequential() {
        let mut h = MembershipHistory::new(MembershipTable::full_power(10));
        assert_eq!(h.current_version(), VersionId(1));
        let v2 = h.record(MembershipTable::active_prefix(10, 8));
        assert_eq!(v2, VersionId(2));
        let v3 = h.record(MembershipTable::full_power(10));
        assert_eq!(v3, VersionId(3));
        assert_eq!(h.active_count(VersionId(1)), 10);
        assert_eq!(h.active_count(VersionId(2)), 8);
        assert_eq!(h.active_count(VersionId(3)), 10);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn history_lookup_unknown_version() {
        let h = MembershipHistory::new(MembershipTable::full_power(3));
        assert!(h.get(VersionId(0)).is_none());
        assert!(h.get(VersionId(2)).is_none());
        assert!(h.get(VersionId(1)).is_some());
    }

    #[test]
    #[should_panic(expected = "fixed server set")]
    fn history_rejects_resized_tables() {
        let mut h = MembershipHistory::new(MembershipTable::full_power(3));
        h.record(MembershipTable::full_power(4));
    }

    #[test]
    fn epoch_classes_collapse_repeated_memberships() {
        let mut h = MembershipHistory::new(MembershipTable::full_power(10));
        let v2 = h.record(MembershipTable::active_prefix(10, 6)); // new class
        let v3 = h.record(MembershipTable::full_power(10)); // = v1
        let v4 = h.record(MembershipTable::active_prefix(10, 6)); // = v2
        let v5 = h.record(MembershipTable::active_prefix(10, 7)); // new class
        assert_eq!(h.epoch_class(VersionId(1)), Some(VersionId(1)));
        assert_eq!(h.epoch_class(v2), Some(v2));
        assert_eq!(h.epoch_class(v3), Some(VersionId(1)));
        assert_eq!(h.epoch_class(v4), Some(v2));
        assert_eq!(h.epoch_class(v5), Some(v5));
        assert_eq!(h.epoch_class(VersionId(0)), None);
        assert_eq!(h.epoch_class(VersionId(99)), None);
    }

    #[test]
    fn epoch_classes_distinguish_content_not_count() {
        // Same active count, different shape => different classes.
        let mut h = MembershipHistory::new(MembershipTable::full_power(4));
        let a = h.record(MembershipTable::active_prefix(4, 2));
        let b = h.record(MembershipTable::from_states(vec![
            PowerState::Off,
            PowerState::Off,
            PowerState::On,
            PowerState::On,
        ]));
        assert_ne!(h.epoch_class(a), h.epoch_class(b));
    }
}
