//! `Cluster::get`: current and header-version placements.

use super::*;

impl Cluster {
    /// Read an object from any live replica.
    ///
    /// First tries the current placement; if none of its servers holds
    /// an acceptable copy (the object has not been re-integrated yet),
    /// falls back to the placement at its header's write version — "as
    /// long as the last version it is written is known, it is able to
    /// accurately find the servers that contain the latest replicas"
    /// (§III-E1).
    ///
    /// Replicas carry the version they were written at; an object
    /// rewritten at a newer membership version may leave *stale* copies
    /// at its older placements until re-integration/repair collects them.
    /// Reads therefore accept only copies stamped at or past the version
    /// in the authoritative header (§III-E2: the header lets the system
    /// "identify the latest data version and avoid stale data"): stale
    /// copies are strictly older, while a concurrent re-integration may
    /// restamp fresh ones past the header a read took.
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
                || self.get_at(oid, deadline),
            )
            .0;
        self.recorder.ret_get(span, &result, &*self.clock);
        result
    }

    /// One read attempt under `deadline`: what [`Cluster::get`] retries.
    fn get_at(&self, oid: ObjectId, deadline: Deadline) -> Result<Bytes, ClusterError> {
        let expected = self.headers.header(oid).map(|h| h.version);
        let view = self.view.peek();
        let current = view.place_current(oid).ok();
        // A copy is acceptable when its stamp is at least the header
        // version we read: stale (superseded) copies are always strictly
        // older than the header, while a concurrent re-integration may
        // restamp fresh copies *past* the header snapshot we took.
        let acceptable = |stamp: ech_core::ids::VersionId| {
            self.mutation.mutated(Mutation::AcceptStale) || expected.is_none_or(|v| stamp >= v)
        };
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
        // One candidate: `Some` ends the read with a served copy or a
        // spent budget, `None` moves on to the next candidate.
        let mut try_server = |server: ServerId| {
            if deadline.expired(&*self.clock) {
                self.counters
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                return Some(Err(ClusterError::DeadlineExceeded));
            }
            let node = match self.node(server) {
                Ok(node) => node,
                Err(e) => return Some(Err(e)),
            };
            match self.rpc(server, node, |n| n.get(oid)) {
                Ok(obj) if acceptable(obj.header.version) => Some(Ok(obj.data)),
                Ok(_) => None,
                Err(e) => {
                    saw_transient |= transient(&e);
                    None
                }
            }
        };
        // The current placement first.
        let current_servers = current.as_ref().map(Placement::servers).unwrap_or_default();
        for &server in current_servers {
            if let Some(done) = try_server(server) {
                return done;
            }
        }
        // None of them served: `locate_ser(OID, Ver)` at the header
        // version, for the servers the current placement does not name.
        // It is skipped when that membership equals the current one in
        // content: after a down/up cycle most headers name an older
        // version of the *same* membership. (An unrecorded version has no
        // class and no placement either way.)
        let history = view.history();
        let written = expected
            .filter(|&ver| history.epoch_class(ver) != history.epoch_class(view.current_version()))
            .and_then(|ver| view.place_at(oid, ver).ok());
        if current.is_none() && written.is_none() {
            return Err(ClusterError::NotFound);
        }
        let unseen = written
            .iter()
            .flat_map(Placement::servers)
            .copied()
            .filter(|s| !current_servers.contains(s));
        // When the placements fail too (e.g. the fresh copy sits on a
        // server an intermediate re-integration chose), sweep all nodes
        // for a version-matching copy before giving up.
        let sweep = (0..self.nodes.len() as u32).map(ServerId);
        for server in unseen.chain(sweep) {
            if let Some(done) = try_server(server) {
                return done;
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
}
