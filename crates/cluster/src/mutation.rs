//! Seeded mutants as one-decision switches on the production data path.
//!
//! Each [`Mutation`] names one ordering or acceptance decision the
//! paper's guarantees rest on. The production bodies in
//! [`crate::cluster`] consult `Installed::mutated` at exactly that
//! decision and nowhere else, so a mutant model is the shipped code
//! with one decision flipped — "the checker catches mutant X" proves
//! "the checker guards decision X". Without the `modelcheck` feature
//! `mutated` is a `const false` and every mutated branch is dead code
//! the optimiser removes; with it, it is a plain `OnceLock` read —
//! never a scheduling point and never a footprint access, so
//! installing a mutation cannot perturb the schedule spaces the models
//! are explored over.

/// A deliberately seeded bug, selected per cluster by
/// `Cluster::install_mutation` (modelcheck builds only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// `put_at` acks a degraded (quorum or power-offloaded) write
    /// without its dirty-table entry. The ack looks identical, but the
    /// missed replicas are no longer self-healing — `heal_dirty` has
    /// nothing to scan. Caught by every schedule of `quorum-dirty-bug`
    /// and `partition-quorum-bug`; `msg-quorum-ack-loss-bug` needs a
    /// message fault to miss a replica at all, so only `--msg` sees it.
    SkipDirtyLog,
    /// `put_at` stores by appending to whatever the replica already
    /// holds instead of overwriting it. On a fault-free fabric that is
    /// byte-for-byte a first write; under the message scheduler's
    /// `Duplicate` fate the retransmitted request appends twice and a
    /// reader observes the doubled payload (`msg-dup-append-bug`,
    /// `--msg` only).
    AppendOnStore,
    /// `put` surfaces the acknowledgement *before* any replica I/O or
    /// header bookkeeping runs. The final cluster state is identical to
    /// a correct put, so state assertions pass exhaustively; only a
    /// recorded history shows a reader observing the old value after
    /// the ack (`lin-ack-before-log-bug`, `--lincheck` only).
    AckBeforeWrite,
    /// The read path's `acceptable` check admits copies older than the
    /// header version, so superseded replicas awaiting collection
    /// become observable (`stale-read-bug` by byte assertion,
    /// `lin-stale-read-bug` by history).
    AcceptStale,
    /// The read path stops counting an open breaker toward "could this
    /// miss be transient?". When every replica hides behind a tripped
    /// breaker a committed object is reported `NotFound` — an
    /// authoritative answer fabricated from a routing veto. Needs a
    /// message fault to trip the breaker (`msg-breaker-notfound-bug`,
    /// `--msg` only).
    BreakerIsAuthoritative,
    /// `resize` publishes the new view with a `Relaxed` pointer store.
    /// Sequentially consistent exploration cannot tell it from the
    /// `Release` publication; under store buffers the swap lingers and
    /// an observer still reads the old membership version after the
    /// resize "completed" (`weak-view-publish-relaxed`, `--weak` only).
    RelaxedPublish,
    /// `execute_task` removes the source replica before the copy
    /// exists. A resize powering the destination off in between loses
    /// the only replica (`reintegration-lost-replica-bug`).
    RemoveBeforeCopy,
    /// `stop_background_worker` stores the stop flag `Relaxed`; under
    /// store buffers the worker keeps observing `false` after the stop
    /// "was requested" (`weak-stop-flag-relaxed`, `--weak` only).
    RelaxedStopFlag,
    /// `heal_dirty` ends with a plausible-looking "reconcile the header
    /// with what the disks hold" step that restamps a healed object's
    /// header *down* to its oldest surviving replica stamp. Every
    /// replica is intact, but the downgraded header re-admits the
    /// superseded copy a past resize left at the current placement
    /// (`lin-heal-restamp-bug`, `--lincheck` only).
    RestampDownOnHeal,
    /// `execute_task` stamps the header to the migration target
    /// *before* the copies land. Until the first target-version copy
    /// exists a concurrent reader sees a header version no replica can
    /// satisfy and reports a spurious `NotFound` (`seeded-stamp-bug`).
    StampBeforeCopy,
}

impl Mutation {
    /// Every variant, for the model ↔ decision-point coverage test.
    pub const ALL: [Mutation; 10] = [
        Mutation::SkipDirtyLog,
        Mutation::AppendOnStore,
        Mutation::AckBeforeWrite,
        Mutation::AcceptStale,
        Mutation::BreakerIsAuthoritative,
        Mutation::RelaxedPublish,
        Mutation::RemoveBeforeCopy,
        Mutation::RelaxedStopFlag,
        Mutation::RestampDownOnHeal,
        Mutation::StampBeforeCopy,
    ];
}

/// The mutation installed on one cluster: zero-sized and constantly
/// empty without the `modelcheck` feature.
#[derive(Debug, Default)]
pub(crate) struct Installed(#[cfg(feature = "modelcheck")] std::sync::OnceLock<Mutation>);

impl Installed {
    /// Is `m` the mutation installed on this cluster?
    #[cfg(not(feature = "modelcheck"))]
    #[inline(always)]
    pub(crate) const fn mutated(&self, _m: Mutation) -> bool {
        false
    }

    /// Is `m` the mutation installed on this cluster?
    #[cfg(feature = "modelcheck")]
    pub(crate) fn mutated(&self, m: Mutation) -> bool {
        self.0.get() == Some(&m)
    }

    /// Select `m`; a cluster carries at most one mutation for life.
    #[cfg(feature = "modelcheck")]
    pub(crate) fn install(&self, m: Mutation) {
        assert!(self.0.set(m).is_ok(), "a mutation is already installed");
    }
}

#[cfg(not(feature = "modelcheck"))]
const _: () = assert!(!Installed().mutated(Mutation::SkipDirtyLog));
