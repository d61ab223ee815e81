//! `Cluster::get`: current and header-version placements, hedged reads.

use super::*;

/// How reads pick among an object's replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPolicy {
    /// Always try the first replica first (simple, but hot-spots it).
    #[default]
    FirstReplica,
    /// Rotate the starting replica round-robin, spreading read load
    /// across all holders — the equal-work layout then makes read work
    /// proportional to data stored ("read performance proportionality",
    /// §III-C).
    Balanced,
    /// Probe the first replica under a latency budget, and hedge to the
    /// remaining candidates when the probe fails or overruns it
    /// (tail-latency hedging against slow replicas). The budget is
    /// measured on the cluster clock, so virtual-clock drills hedge
    /// deterministically.
    Hedged {
        /// Latency budget granted to the first candidate before the
        /// hedge fires.
        threshold: std::time::Duration,
    },
}

impl Cluster {
    /// Read an object from any live replica.
    ///
    /// First tries the current placement; if the object has not been
    /// re-integrated yet, falls back to the placement at its header's
    /// write version — "as long as the last version it is written is
    /// known, it is able to accurately find the servers that contain the
    /// latest replicas" (§III-E1).
    pub fn get(&self, oid: ObjectId) -> Result<Bytes, ClusterError> {
        let span = self.recorder.inv_get(oid, &*self.clock);
        // One budget spans the whole read, retries included.
        let deadline = self.op_deadline();
        let result = self
            .cfg
            .retry
            .run_counted_deadline(
                &*self.clock,
                deadline,
                oid.raw(),
                ClusterError::is_retryable,
                || self.get_at(oid, ReadPolicy::FirstReplica, deadline),
            )
            .0;
        self.recorder.ret_get(span, &result, &*self.clock);
        result
    }

    /// Read an object, choosing the starting replica per `policy`.
    ///
    /// Replicas carry the version they were written at; an object
    /// rewritten at a newer membership version may leave *stale* copies
    /// at its older placements until re-integration/repair collects them.
    /// Reads therefore accept only copies stamped at or past the version
    /// in the authoritative header (§III-E2: the header lets the system
    /// "identify the latest data version and avoid stale data"): stale
    /// copies are strictly older, while a concurrent re-integration may
    /// restamp fresh ones past the header a read took.
    pub fn get_with(&self, oid: ObjectId, policy: ReadPolicy) -> Result<Bytes, ClusterError> {
        let span = self.recorder.inv_get(oid, &*self.clock);
        let result = self.get_at(oid, policy, self.op_deadline());
        self.recorder.ret_get(span, &result, &*self.clock);
        result
    }

    /// One read attempt under `deadline`: [`Cluster::get_with`]'s body,
    /// and what [`Cluster::get`] retries.
    fn get_at(
        &self,
        oid: ObjectId,
        policy: ReadPolicy,
        deadline: Deadline,
    ) -> Result<Bytes, ClusterError> {
        let expected = self.headers.header(oid).map(|h| h.version);
        let view = self.view.peek();
        let current = view.place_current(oid).ok();
        // `locate_ser(OID, Ver)` at the header version adds a candidate
        // only when that membership differs in content from the current
        // one: after a down/up cycle most headers name an older version
        // of the *same* membership, and the second walk is skipped. (An
        // unrecorded version has no class and no placement either way.)
        let history = view.history();
        let written = expected
            .filter(|&ver| history.epoch_class(ver) != history.epoch_class(view.current_version()))
            .and_then(|ver| view.place_at(oid, ver).ok());
        // Current placement first, then the header-version servers it
        // does not already name. The common case is one placement, whose
        // server list is borrowed as is.
        let merged: Placement;
        let candidates: &[ServerId] = match (&current, &written) {
            (Some(c), Some(w)) => {
                merged = c.then_unseen(w);
                merged.servers()
            }
            (Some(p), None) | (None, Some(p)) => p.servers(),
            (None, None) => return Err(ClusterError::NotFound),
        };
        let start = match policy {
            ReadPolicy::FirstReplica | ReadPolicy::Hedged { .. } => 0,
            ReadPolicy::Balanced => {
                self.read_rr.fetch_add(1, Ordering::Relaxed) as usize % candidates.len()
            }
        };
        // A copy is acceptable when its stamp is at least the header
        // version we read: stale (superseded) copies are always strictly
        // older than the header, while a concurrent re-integration may
        // restamp fresh copies *past* the header snapshot we took.
        let acceptable = |stamp: ech_core::ids::VersionId| {
            self.mutation.mutated(Mutation::AcceptStale) || expected.is_none_or(|v| stamp >= v)
        };
        if let ReadPolicy::Hedged { threshold } = policy {
            if let Some(data) = self.hedged_get(oid, candidates, &acceptable, threshold, deadline) {
                return Ok(data);
            }
        }
        // Link failures must not masquerade as authoritative misses:
        // track them and report `Unavailable` (retryable) instead of
        // `NotFound` when every failure could have been a fault. An open
        // breaker counts too — it is a routing verdict about the link,
        // never an authoritative statement about the object.
        let transient = |e: &NodeError| {
            e.is_link_failure()
                && !(*e == NodeError::BreakerOpen
                    && self.mutation.mutated(Mutation::BreakerIsAuthoritative))
        };
        let mut saw_transient = false;
        // Placement-guided candidates first; when they fail (e.g. the
        // fresh copy sits on a server an intermediate re-integration
        // chose), sweep all nodes for a version-matching copy before
        // giving up.
        let guided = candidates.iter().copied().cycle().skip(start);
        let sweep = (0..self.nodes.len() as u32).map(ServerId);
        for server in guided.take(candidates.len()).chain(sweep) {
            if deadline.expired(&*self.clock) {
                self.counters
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ClusterError::DeadlineExceeded);
            }
            let node = self.node(server)?;
            match self.rpc(server, node, |n| n.get(oid)) {
                Ok(obj) if acceptable(obj.header.version) => return Ok(obj.data),
                Ok(_) => {}
                Err(e) => saw_transient |= transient(&e),
            }
        }
        if saw_transient {
            self.counters
                .unavailable_errors
                .fetch_add(1, Ordering::Relaxed);
            Err(ClusterError::Unavailable)
        } else {
            Err(ClusterError::NotFound)
        }
    }

    /// Probe the first candidate under a per-probe latency budget of
    /// `threshold`, and hedge to the remaining candidates when the probe
    /// either failed or overran the budget on the cluster clock. `None`
    /// falls back to the caller's sequential sweep.
    ///
    /// The probe runs inline through [`Cluster::rpc`]: a slow replica
    /// charges its injected delay to the clock, so "did it answer within
    /// the threshold" is a pure clock comparison — no helper thread, no
    /// channel polling, no wall-time dependence. The threshold is a
    /// *freshness* budget, not a race: a first replica that answers late
    /// (or returns a stale copy) loses to any acceptable secondary, and
    /// is used only as the last resort.
    ///
    /// The operation's [`Deadline`] is consulted before every hedge
    /// probe: hedging is an optimisation, and a spent budget means the
    /// caller's sequential sweep should surface the failure instead.
    fn hedged_get(
        &self,
        oid: ObjectId,
        candidates: &[ServerId],
        acceptable: &impl Fn(VersionId) -> bool,
        threshold: std::time::Duration,
        deadline: Deadline,
    ) -> Option<Bytes> {
        let first_id = *candidates.first()?;
        let first = self.node(first_id).ok()?;
        let t0 = self.clock.now();
        let first_result = self.rpc(first_id, first, |n| n.get(oid));
        let overran = self.clock.now().saturating_sub(t0) >= threshold;
        if let Ok(obj) = &first_result {
            if acceptable(obj.header.version) && !overran {
                return Some(obj.data.clone());
            }
        }
        // The first replica was slow, stale, or unreachable — hedge.
        self.counters.hedged_reads.fetch_add(1, Ordering::Relaxed);
        for &s in candidates.iter().skip(1) {
            if deadline.expired(&*self.clock) {
                break;
            }
            if let Ok(obj) = self.rpc(s, self.node(s).ok()?, |n| n.get(oid)) {
                if acceptable(obj.header.version) {
                    return Some(obj.data);
                }
            }
        }
        // Every hedge lost; a late-but-acceptable original still wins
        // over giving up.
        if let Ok(obj) = first_result {
            if acceptable(obj.header.version) {
                return Some(obj.data);
            }
        }
        None
    }
}
